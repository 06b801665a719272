import itertools
import random
import time
from collections import Counter

import pytest

from mscgossip.cfm import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    Cfm,
    CfmError,
    LazyCfm,
    Run,
    Transition,
    accepts,
    attach_annotation,
    cfm_from_json,
    cfm_to_json,
    detach_annotation,
    find_accepting_run,
    is_deterministic,
    mirror_cfm,
    product,
    project_annotation,
    relabel,
    universal_cfm,
    validate_run,
)
from mscgossip.constructions import (
    build_fa_label_cfm,
    build_first_label_cfm,
    build_fixpoint_cfm,
)
from mscgossip.corpus import enumerate_mscs, random_corpus, random_msc
from mscgossip.impossibility import (
    FamilyParams,
    _GuessingQ,
    _with_labels,
    build_family_msc,
    naive_gossip_cfm,
    q_label_spec,
)
from mscgossip.msc import ExtendedMsc, Msc, SystemSignature, linearize, mirror_msc
from mscgossip.paths import PLUS, STAR, f_pair, parse_path, star_prepend
from figures import SIG3, fig_base, fig_flipped, oracle_accepts, random_cfm
from test_impossibility import CLAIMANTS

NAIVE = naive_gossip_cfm()
SIG2 = SystemSignature(("p", "q"), ("a", "b"))


def test_transition_validation():
    with pytest.raises(CfmError):
        Transition("p", "s", "send", "a", "s")  # missing msg/peer
    with pytest.raises(CfmError):
        Transition("p", "s", "local", "a", "s", msg="m", peer="q")
    with pytest.raises(CfmError):
        Transition("p", "s", "recv", "a", "s", msg="m", peer="p")
    with pytest.raises(CfmError):
        Transition("p", "s", "jump", "a", "s")


def test_cfm_validation():
    with pytest.raises(CfmError):
        Cfm(SIG2, ["m"], {"p": ["s"], "q": ["s"]}, {"p": "s"}, [], [])
    with pytest.raises(CfmError):
        Cfm(
            SIG2, ["m"], {"p": ["s"], "q": ["s"]}, {"p": "s", "q": "s"},
            [Transition("p", "s", "local", "zzz", "s")], [("s", "s")],
        )
    with pytest.raises(CfmError):
        Cfm(
            SIG2, ["m"], {"p": ["s"], "q": ["s"]}, {"p": "s", "q": "s"},
            [], [("s",)],  # wrong arity
        )


_OK_STATES = {"p": ["s"], "q": ["s"]}
_OK_INITIAL = {"p": "s", "q": "s"}


@pytest.mark.parametrize("initial, transitions, accepting, message", [
    ({"p": "s"}, [], [], "no initial state for process 'q'"),
    ({"p": "x", "q": "s"}, [], [], "initial state of 'p' not in its state set"),
    (_OK_INITIAL, [Transition("r", "s", "local", "a", "s")], [],
     "transition on unknown process 'r'"),
    (_OK_INITIAL, [Transition("p", "s", "local", "a", "x")], [], "references unknown states"),
    (_OK_INITIAL, [Transition("p", "s", "local", "zzz", "s")], [], "uses unknown label"),
    (_OK_INITIAL, [Transition("p", "s", "send", "a", "s", "zz", "q")], [],
     "uses unknown message"),
    (_OK_INITIAL, [Transition("p", "s", "send", "a", "s", "m", "r")], [],
     "references unknown peer"),
    (_OK_INITIAL, [], [("s",)], r"global tuple \('s',\) has wrong arity"),
    (_OK_INITIAL, [], [("s", "x")], r"global tuple \('s', 'x'\) uses unknown state for 'q'"),
])
def test_cfm_check_names_each_malformation(initial, transitions, accepting, message):
    with pytest.raises(CfmError, match=message):
        Cfm(SIG2, ["m"], _OK_STATES, initial, transitions, accepting)


# -- the forwarding machine on the 24-event fixture ----------------------------


def test_naive_accepts_base_fixture():
    assert accepts(NAIVE, fig_base())


def test_naive_rejects_flipped_fixture():
    # f2/f5 carry a but receive a b-message: no matching receive transition
    assert not accepts(NAIVE, fig_flipped())


def test_naive_rejects_d_from_p():
    m = Msc(SIG3, [("s", "p", "d"), ("r", "q", "d")], [("s", "r")])
    assert not accepts(NAIVE, m)


def test_run_soundness_on_fixture():
    run = find_accepting_run(NAIVE, fig_base())
    assert run is not None
    assert validate_run(NAIVE, fig_base(), run) == []
    assert len(run.assignment) == 24


def test_validate_run_catches_mutations():
    m = fig_base()
    run = find_accepting_run(NAIVE, m)
    t = run.assignment["f0"]
    run.assignment["f0"] = Transition(
        t.proc, t.source, t.kind, t.label, t.target, msg="a", peer=t.peer
    )
    errs = validate_run(NAIVE, m, run)
    assert any("message letters differ" in v for v in errs)


def test_validate_run_requires_totality():
    m = fig_base()
    run = find_accepting_run(NAIVE, m)
    del run.assignment["f0"]
    assert any("no transition assigned" in v for v in validate_run(NAIVE, m, run))


# p: e1 sends to q, then e2 is local; q: f1 receives; r has no event
_SEND_SIG = SystemSignature(("p", "q", "r"), ("a", "b"))
_SEND_MSC = Msc(_SEND_SIG, [("e1", "p", "a"), ("e2", "p", "a"), ("f1", "q", "a")],
                [("e1", "f1")])
_SEND_MOVES = {
    "e1": Transition("p", "s0", "send", "a", "s1", "m", "q"),
    "e2": Transition("p", "s1", "local", "a", "s1"),
    "f1": Transition("q", "t0", "recv", "a", "t1", "m", "p"),
}


def _send_cfm(accepting=(("s1", "t1", "v0"),)):
    states = {"p": ["s0", "s1"], "q": ["t0", "t1"], "r": ["v0"]}
    initial = {"p": "s0", "q": "t0", "r": "v0"}
    return Cfm(_SEND_SIG, ["m"], states, initial, _SEND_MOVES.values(), accepting)


@pytest.mark.parametrize("event, move, start, message", [
    ("e1", Transition("q", "s0", "send", "a", "s1", "m", "p"), None,
     "'e1': transition belongs to process 'q'"),
    ("e1", Transition("p", "s0", "send", "b", "s1", "m", "q"), None,
     "'e1': label mismatch ('b' vs 'a')"),
    ("e1", Transition("p", "s0", "local", "a", "s1"), None,
     "'e1': event is a send but transition is a local"),
    (None, None, ("s1", "t0", "v0"), "'e1': first event does not start in the initial state"),
    ("e2", Transition("p", "s0", "local", "a", "s1"), None,
     "states do not chain across ('e1', 'e2')"),
    ("e1", Transition("p", "s0", "send", "a", "s1", "m", "r"), None,
     "peer processes wrong on ('e1', 'f1')"),
])
def test_validate_run_names_each_fault(event, move, start, message):
    c = _send_cfm()
    assert validate_run(c, _SEND_MSC, Run(dict(_SEND_MOVES), ("s0", "t0", "v0"))) == []
    assignment = dict(_SEND_MOVES) if event is None else {**_SEND_MOVES, event: move}
    assert message in validate_run(c, _SEND_MSC, Run(assignment, start or ("s0", "t0", "v0")))


def test_validate_run_names_a_final_tuple_that_is_not_accepting():
    run = Run(dict(_SEND_MOVES), ("s0", "t0", "v0"))
    assert validate_run(_send_cfm(accepting=()), _SEND_MSC, run) == [
        "final tuple ('s1', 't1', 'v0') is not accepting"
    ]


def test_empty_acc_rejects_everything():
    c = Cfm(
        SIG3, NAIVE.messages, NAIVE.states, NAIVE.initial, NAIVE.transitions, []
    )
    assert not accepts(c, fig_base())


def test_budget_exhaustion_is_distinct():
    with pytest.raises(BudgetExhausted):
        accepts(NAIVE, fig_base(), budget=5)


def test_exhausted_search_counts_exactly_its_budget():
    stats: dict = {}
    with pytest.raises(BudgetExhausted):
        find_accepting_run(NAIVE, fig_base(), budget=3, stats=stats)
    assert stats["visited"] == 3
    m = fig_base()
    find_accepting_run(NAIVE, m, stats=stats)
    assert stats["visited"] == len(m.events) + 1


def test_determinism_examples():
    assert is_deterministic(NAIVE)
    extra_send = Cfm(
        SIG3, NAIVE.messages, NAIVE.states, NAIVE.initial,
        list(NAIVE.transitions)
        + [Transition("p", "s0p", "send", "b", "s0p", "a", "q")],
        NAIVE.accepting,
    )
    assert not is_deterministic(extra_send)
    states = {"p": ["s", "t"], "q": ["s"]}
    two_recv = Cfm(
        SIG2, ["m"], states, {"p": "s", "q": "s"},
        [
            Transition("p", "s", "recv", "a", "s", "m", "q"),
            Transition("p", "s", "recv", "a", "t", "m", "q"),
        ],
        [("s", "s")],
    )
    assert not is_deterministic(two_recv)
    two_local = Cfm(
        SIG2, ["m"], states, {"p": "s", "q": "s"},
        [
            Transition("p", "s", "local", "a", "s"),
            Transition("p", "s", "local", "a", "t"),
        ],
        [("s", "s")],
    )
    assert not is_deterministic(two_local)


def test_deterministic_search_is_narrow():
    # a deterministic machine gives the DFS at most one choice per event,
    # so node count is |E| + 1 and a budget of |E| + 1 suffices
    m = fig_base()
    assert accepts(NAIVE, m, budget=len(m.events) + 1)


# -- completeness and linearization independence -------------------------------


SMALL_MSCS = [
    m
    for m in enumerate_mscs(SystemSignature(("p", "q"), ("a", "b")), 4, max_labelings=4)
]


def test_search_matches_bruteforce_oracle():
    rng = random.Random(7)
    machines = [random_cfm(SIG2, rng) for _ in range(6)]
    checked = 0
    for c in machines:
        for m in SMALL_MSCS[::3]:
            assert accepts(c, m) == oracle_accepts(c, m)
            checked += 1
    assert checked > 100


def _renamed(m, rng):
    """m with its event ids permuted, so that linearize, which breaks ties
    by event id, searches another order."""
    ids = list(m.events)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    events = [(new[e], m.loc[e], m.label[e]) for e in m.events]
    return Msc(m.signature, events, [(new[s], new[r]) for s, r in m.msg]), new


def test_acceptance_independent_of_linearization():
    rng = random.Random(9)
    verdicts = []
    for m in (fig_base(), fig_flipped()):
        base = accepts(NAIVE, m)
        orders = set()
        for _ in range(20):
            renamed, new = _renamed(m, rng)
            back = {v: e for e, v in new.items()}
            orders.add(tuple(back[e] for e in linearize(renamed)))
            assert accepts(NAIVE, renamed) == base
        assert len(orders) >= 15
        verdicts.append(base)
    assert verdicts == [True, False]


# -- closure operations ---------------------------------------------------------


CORPUS = random_corpus(SIG2, 40, seed=5, max_events_per_proc=3)


def test_universal_accepts_everything():
    u = universal_cfm(SIG3)
    assert accepts(u, fig_base())
    assert accepts(u, Msc(SIG3, [("e", "p", "a")], []))
    for m in random_corpus(SIG3, 10, seed=2):
        assert accepts(u, m)


def test_search_depth_is_not_bounded_by_recursion():
    # 600 messages bouncing between p and q: 1200 events in one causal chain
    events, messages = [], []
    for i in range(600):
        src, dst = ("p", "q") if i % 2 == 0 else ("q", "p")
        events += [(f"s{i}", src, "a"), (f"r{i}", dst, "b")]
        messages.append((f"s{i}", f"r{i}"))
    m = Msc(SIG2, events, messages)
    run = find_accepting_run(universal_cfm(SIG2), m)
    assert run is not None and len(run.assignment) == 1200


def test_product_identity_and_idempotence():
    u = universal_cfm(SIG2)
    rng = random.Random(13)
    for i in range(6):
        c = random_cfm(SIG2, rng)
        cu = product(c, u)
        cc = product(c, c)
        for m in CORPUS[i * 5 : i * 5 + 5]:
            want = accepts(c, m)
            assert accepts(cu, m) == want
            assert accepts(cc, m) == want


def test_product_intersects():
    rng = random.Random(17)
    for i in range(8):
        c1, c2 = random_cfm(SIG2, rng), random_cfm(SIG2, rng)
        c12 = product(c1, c2)
        for m in CORPUS[i * 4 : i * 4 + 4]:
            assert accepts(c12, m) == (accepts(c1, m) and accepts(c2, m))


def test_product_with_label_filter_rejects():
    # a machine that refuses label d on r, crossed with the forwarding machine
    allow = universal_cfm(SIG3, messages=("*",))
    trans = [
        t for t in allow.transitions if not (t.proc == "r" and t.label == "d")
    ]
    no_d = Cfm(SIG3, allow.messages, allow.states, allow.initial, trans,
               allow.accepting)
    assert not accepts(product(NAIVE, no_d), fig_base())


def test_product_requires_identical_signatures():
    with pytest.raises(CfmError, match="product requires identical signatures"):
        product(universal_cfm(SIG2), NAIVE)


def test_product_with_generalized_start_tuples_intersects():
    # a mirrored machine starts from its generalized start tuples, which the
    # product pairs with the other machine's start tuple
    rng = random.Random(19)
    checked = 0
    for i in range(6):
        c1, c2 = mirror_cfm(random_cfm(SIG2, rng)), random_cfm(SIG2, rng)
        for both in (product(c1, c2), product(c2, c1)):
            assert both.generalized_initial is not None
            for m in CORPUS[i * 4 : i * 4 + 4]:
                assert accepts(both, m) == (accepts(c1, m) and accepts(c2, m))
                checked += accepts(both, m)
    assert checked > 0


def test_mirror_of_a_machine_without_accepting_tuples_accepts_nothing():
    c = _send_cfm(accepting=())
    mc = mirror_cfm(c)
    assert mc.initial == c.initial
    assert mc.generalized_initial == frozenset()
    assert not accepts(mc, mirror_msc(_SEND_MSC))
    assert accepts(mirror_cfm(_send_cfm()), mirror_msc(_SEND_MSC))


def test_mirror_property_random():
    rng = random.Random(31)
    checked = 0
    for i in range(25):
        c = random_cfm(SIG2, rng)
        mc = mirror_cfm(c)
        for m in CORPUS[(i * 8) % 30 : (i * 8) % 30 + 8]:
            assert accepts(mc, mirror_msc(m)) == accepts(c, m)
            checked += 1
    assert checked >= 200


def test_mirror_involution_at_language_level():
    rng = random.Random(37)
    for i in range(5):
        c = random_cfm(SIG2, rng)
        cmm = mirror_cfm(mirror_cfm(c))
        for m in CORPUS[:12]:
            assert accepts(cmm, m) == accepts(c, m)


def test_relabel_identity_and_collapse():
    rng = random.Random(43)
    c = random_cfm(SIG2, rng)
    ident = relabel(c, {a: a for a in SIG2.alphabet})
    for m in CORPUS[:10]:
        assert accepts(ident, m) == accepts(c, m)
    with pytest.raises(CfmError):
        relabel(c, {"a": "x"})  # partial morphism


def test_project_annotation_drops_bit():
    prod_sig = SystemSignature(("p", "q"), (("a", 0), ("a", 1), ("b", 0), ("b", 1)))
    c = universal_cfm(prod_sig)
    flat = project_annotation(c)
    assert set(flat.signature.alphabet) == {"a", "b"}
    m = Msc(SIG2, [("e", "p", "a"), ("f", "q", "b")], [])
    assert accepts(flat, m)
    with pytest.raises(CfmError, match="alphabet is not a product of pairs"):
        project_annotation(universal_cfm(SIG2))


# -- lazy machines ---------------------------------------------------------------


def wrap_lazy(c: Cfm) -> LazyCfm:
    """Behavioral wrapper; acceptance needs a tuple check, so encode the
    machine's accepting tuples per process by tracking full tuples is not
    possible per-process: use the last-state predicate only for machines
    whose accepting set is a full product."""
    per_proc_ok = {
        p: {t[i] for t in c.accepting}
        for i, p in enumerate(c.signature.processes)
    }

    def starts(p):
        return [c.initial[p]]

    def step(p, state, kind, label, peer, msg_in):
        for ns, mo, _ in c.step(p, state, kind, label, peer, msg_in):
            yield ns, mo

    def final_ok(p, state):
        return state in per_proc_ok[p]

    return LazyCfm(c.signature, starts, step, final_ok)


def test_lazy_wrapper_agrees_with_explicit():
    # the forwarding machine's Acc is a singleton product, so the per-process
    # encoding is exact
    lazy = wrap_lazy(NAIVE)
    assert accepts(lazy, fig_base())
    assert not accepts(lazy, fig_flipped())
    run = find_accepting_run(lazy, fig_base())
    assert validate_run(lazy, fig_base(), run) == []


def test_json_roundtrip():
    for c in (NAIVE, universal_cfm(SIG2)):
        back = cfm_from_json(cfm_to_json(c))
        assert back.signature == c.signature
        assert set(back.messages) == set(c.messages)
        assert back.accepting == c.accepting
        for m in CORPUS[:5]:
            if c.signature == SIG2:
                assert accepts(back, m) == accepts(c, m)
    assert accepts(cfm_from_json(cfm_to_json(NAIVE)), fig_base())


def test_detach_inverts_attach():
    for m in random_corpus(SIG2, 10, seed=5):
        annot = {e: i % 2 for i, e in enumerate(m.events)}
        back = detach_annotation(attach_annotation(ExtendedMsc(m, annot)))
        assert back.base.events == m.events
        assert back.base.loc == m.loc and back.base.label == m.label
        assert back.base.msg == m.msg
        assert back.annot == annot
    with pytest.raises(CfmError, match="event 'e' does not carry a \\(label, annot\\) pair"):
        detach_annotation(Msc(SIG2, [("e", "p", "a")], []))


def test_search_requires_the_msc_processes():
    with pytest.raises(CfmError, match="machine and MSC have different process sets"):
        find_accepting_run(universal_cfm(SIG2), fig_base())


# -- the move table against the search that steps at every node -----------------


def _reference_search(machine, m, budget=DEFAULT_BUDGET, final_rule=True):
    """The run search asking the machine for a node's moves at every visit.

    With ``final_rule``, a LazyCfm's moves at a process's last event are
    only those whose new state passes the process's final test.  Returns
    (run or None, nodes visited); the node that exceeds the budget raises
    BudgetExhausted.
    """
    if machine.signature is None:
        machine = machine.with_signature(m.signature)
    final_ok = machine._final if final_rule and isinstance(machine, LazyCfm) else None
    order = linearize(m)
    pidx = {p: i for i, p in enumerate(machine.signature.processes)}
    last = {es[-1] for p in pidx if (es := m.events_of(p))}
    channel = {}
    for s, r in m.msg:
        channel.setdefault((m.loc[s], m.loc[r]), len(channel))
    shapes = []
    for e in order:
        p, kind, peer = m.loc[e], m.kind_of(e), m.peer_of(e)
        c = None if kind == "local" else channel[(p, peer) if kind == "send" else (peer, p)]
        shapes.append((pidx[p], p, kind, peer, m.label[e], c))
    visited = 0
    failed = set()

    def moves(i, states, chans):
        k, p, kind, peer, label, c = shapes[i]
        msg_in = chans[c][0] if kind == "recv" else None
        moves = machine.step(p, states[k], kind, label, peer, msg_in)
        if final_ok is not None and order[i] in last:
            moves = (mv for mv in moves if final_ok(p, mv[0]))
        return iter(moves)

    for start in machine.initial_tuples():
        stack, path = [], []
        states, chans = tuple(start), ((),) * len(channel)
        while True:
            visited += 1
            if visited > budget:
                raise BudgetExhausted(budget)
            i = len(stack)
            if i == len(order):
                if not any(chans) and machine.is_accepting(states):
                    return Run(dict(zip(order, path)), tuple(start)), visited
            else:
                key = (i, states, chans)
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
            k, _, kind, _, _, c = shapes[i]
            new_state, msg_out, t = move
            del path[i:]
            path.append(t)
            states = states[:k] + (new_state,) + states[k + 1 :]
            if kind == "send":
                chans = chans[:c] + (chans[c] + (msg_out,),) + chans[c + 1 :]
            elif kind == "recv":
                chans = chans[:c] + (chans[c][1:],) + chans[c + 1 :]
    return None, visited


def _same_search(machine, m) -> bool:
    """The search and the reference return the same run and visit as many
    nodes, and the reference without the final rule returns that run too,
    visiting no fewer nodes; returns whether a run was found."""
    stats: dict = {}
    run = find_accepting_run(machine, m, stats=stats)
    assert (run, stats["visited"]) == _reference_search(machine, m)
    plain_run, plain_visited = _reference_search(machine, m, final_rule=False)
    assert plain_run == run and plain_visited >= stats["visited"]
    return run is not None


GOSSIP_PQ = "->* msg(p,q) ->*"  # the p-to-q gossip path of two processes


def test_search_matches_reference_on_fixpoint_machine():
    # every 2-process shape of 4 events with a q-event: the oracle bits and
    # each of their single-bit errors on q
    rng = random.Random(1)
    pi = parse_path(GOSSIP_PQ, SIG2)
    pi2 = star_prepend(pi)
    mach = build_fixpoint_cfm("p", "q", pi, pi2)
    found = Counter()
    for shape in enumerate_mscs(SIG2, 4, max_labelings=1):
        if len(shape.events) != 4 or not shape.events_of("q"):
            continue
        m = Msc(SIG2, [(e, shape.loc[e], rng.choice("ab")) for e in shape.events], shape.msg)
        bits = {e: 0 for e in m.events}
        for e in m.events_of("q"):
            bits[e] = 1 if f_pair(m, pi, pi2, e) == e else 0
        found[_same_search(mach, attach_annotation(ExtendedMsc(m, bits)))] += 1
        for e in m.events_of("q"):
            wrong = {**bits, e: 1 - bits[e]}
            found[_same_search(mach, attach_annotation(ExtendedMsc(m, wrong)))] += 1
    assert found[True] > 10 and found[False] > found[True]


def test_search_matches_reference_on_label_machines():
    rng = random.Random(2)
    theta = ("x", "y")
    machines = [
        build_first_label_cfm(theta, parse_path(GOSSIP_PQ, SIG2)),
        build_fa_label_cfm(theta, "q", "q", PLUS, STAR),
    ]
    for mach in machines:
        for m in random_corpus(SIG2, 8, seed=3, max_events_per_proc=4):
            ann = mach.annotate(m, {e: rng.choice(theta) for e in m.events})
            assert _same_search(mach, attach_annotation(ExtendedMsc(m, ann)))
            if m.events_of("q"):
                e = rng.choice(m.events_of("q"))
                bad = {**ann, e: (ann[e][0], "y" if ann[e][1] == "x" else "x")}
                assert not _same_search(mach, attach_annotation(ExtendedMsc(m, bad)))


def test_search_matches_reference_on_universal_machine():
    u = universal_cfm(SIG3)
    for m in random_corpus(SIG3, 6, seed=11):
        assert _same_search(u, m)


def test_search_matches_reference_on_a_long_universal_run():
    # 265 events of three processes, with up to 18 messages in flight
    m = random_msc(SIG3, random.Random(1), 111)
    assert 240 <= len(m.events) <= 300
    assert _same_search(universal_cfm(SIG3), m)


def test_search_matches_reference_on_guessing_claimant():
    m = build_family_msc(FamilyParams(5, 2))
    assert _same_search(_GuessingQ(CLAIMANTS["parity"]), _with_labels(m, q_label_spec(m)))


class _CountedSteps:
    """A machine that counts its steps per tuple of step arguments."""

    def __init__(self, machine):
        self.machine = machine
        self.signature = machine.signature
        self.calls = Counter()

    def initial_tuples(self):
        return self.machine.initial_tuples()

    def step(self, *key):
        self.calls[key] += 1
        return self.machine.step(*key)

    def is_accepting(self, final):
        return self.machine.is_accepting(final)


def test_each_local_situation_is_stepped_once():
    m = build_family_msc(FamilyParams(5, 2))
    m = _with_labels(m, q_label_spec(m))
    plain = _CountedSteps(_GuessingQ(CLAIMANTS["parity"]))
    _reference_search(plain, m)
    counted = _CountedSteps(_GuessingQ(CLAIMANTS["parity"]))
    stats: dict = {}
    find_accepting_run(counted, m, stats=stats)
    assert set(counted.calls) == set(plain.calls)
    assert max(plain.calls.values()) > 1
    assert set(counted.calls.values()) == {1}
    assert stats["steps"] == len(counted.calls)


def test_moves_are_pulled_only_as_needed():
    # every step yields endlessly many moves; the run reads the first (and,
    # when only state 2 accepts, the third) move of a key both events share
    sig = SystemSignature(("p",), ("a",))
    m = Msc(sig, [("e0", "p", "a"), ("e1", "p", "a")], [])

    def step(p, state, kind, label, peer, msg_in):
        return ((n, None) for n in itertools.count())

    for final, targets in ((0, [0, 0]), (2, [0, 2])):
        lazy = LazyCfm(sig, lambda p: [0], step, lambda p, s, final=final: s == final)
        run = find_accepting_run(lazy, m)
        assert [run.assignment[e].target for e in ("e0", "e1")] == targets


# -- the final test at a process's last event --------------------------------------


def _toy_lazy(p_final):
    """p's one event may go to 0, 1 or 2 and q's events keep q at 0; p is
    final in ``p_final``, q always."""
    def step(p, state, kind, label, peer, msg_in):
        return [(s, None) for s in (0, 1, 2)] if p == "p" else [(0, None)]

    return LazyCfm(SIG2, lambda p: [0], step, lambda p, s: p == "q" or s in p_final)


def test_non_final_state_at_a_last_event_is_not_searched():
    # the order is p's only event, then q's three; without the rule each of
    # p's moves to 0 and 1 would be followed through q's events to a
    # rejected end (4 nodes each)
    m = Msc(SIG2, [("a0", "p", "a"), ("b0", "q", "a"), ("b1", "q", "a"), ("b2", "q", "b")], [])
    assert linearize(m) == ("a0", "b0", "b1", "b2")
    stats: dict = {}
    run = find_accepting_run(_toy_lazy({2}), m, stats=stats)
    assert run.assignment["a0"].target == 2
    assert (stats["visited"], stats["pruned"]) == (5, 2)
    assert _reference_search(_toy_lazy({2}), m) == (run, 5)
    assert _reference_search(_toy_lazy({2}), m, final_rule=False) == (run, 13)
    # nothing final at p's last event: one node, both searches reject
    assert find_accepting_run(_toy_lazy(set()), m, stats=stats) is None
    assert (stats["visited"], stats["pruned"]) == (1, 3)
    assert _reference_search(_toy_lazy(set()), m, final_rule=False) == (None, 13)


def test_moves_dropped_at_last_events_count_against_the_budget():
    # nodes visited and moves dropped share the budget: the search above
    # visits 5 nodes and drops 2 moves
    m = Msc(SIG2, [("a0", "p", "a"), ("b0", "q", "a"), ("b1", "q", "a"), ("b2", "q", "b")], [])
    assert find_accepting_run(_toy_lazy({2}), m, budget=7) is not None
    with pytest.raises(BudgetExhausted):
        find_accepting_run(_toy_lazy({2}), m, budget=6)
    # a step with endlessly many moves at the only event, none of them
    # final, stops at the budget instead of pulling moves forever
    sig = SystemSignature(("p",), ("a",))
    endless = LazyCfm(
        sig, lambda p: [0], lambda *a: ((n, None) for n in itertools.count()), lambda p, s: False
    )
    stats: dict = {}
    began = time.perf_counter()
    with pytest.raises(BudgetExhausted):
        find_accepting_run(endless, Msc(sig, [("e0", "p", "a")], []), budget=10, stats=stats)
    assert time.perf_counter() - began < 0.5
    assert (stats["visited"], stats["pruned"]) == (1, 9)


def test_process_without_events_is_rejected_by_the_closing_check():
    # q has no event, so no move is checked against q's final test; the end
    # node's acceptance check still rejects q's start state
    m = Msc(SIG2, [("a0", "p", "a")], [])
    stats: dict = {}
    lazy = LazyCfm(SIG2, lambda p: [0], lambda *a: [(0, None)], lambda p, s: p == "p")
    assert find_accepting_run(lazy, m, stats=stats) is None
    assert (stats["visited"], stats["pruned"]) == (2, 0)
    lazy = LazyCfm(SIG2, lambda p: [0], lambda *a: [(0, None)], lambda p, s: True)
    assert find_accepting_run(lazy, m) is not None


def test_a_failed_node_is_not_searched_again():
    # both of p's moves reach the same node at b0, from which q's last
    # event has no final move; the second visit finds the node failed
    m = Msc(SIG2, [("a0", "p", "a"), ("b0", "q", "a"), ("b1", "q", "b")], [])
    assert linearize(m) == ("a0", "b0", "b1")

    def step(p, state, kind, label, peer, msg_in):
        return [(1, None), (1, None)] if p == "p" else [(0, None)]

    lazy = LazyCfm(SIG2, lambda p: [0], step, lambda p, s: p == "p")
    stats: dict = {}
    assert find_accepting_run(lazy, m, stats=stats) is None
    assert (stats["visited"], stats["pruned"]) == (4, 1)
    assert _reference_search(lazy, m) == (None, 4)


def test_final_test_is_asked_once_per_process_and_state():
    pi = parse_path(GOSSIP_PQ, SIG2)
    pi2 = star_prepend(pi)
    rng = random.Random(4)
    asked = Counter()
    searches = pruned = 0
    for shape in enumerate_mscs(SIG2, 4, max_labelings=1):
        if len(shape.events) != 4 or not shape.events_of("q"):
            continue
        m = Msc(SIG2, [(e, shape.loc[e], rng.choice("ab")) for e in shape.events], shape.msg)
        bits = {e: 0 for e in m.events}
        for e in m.events_of("q"):
            bits[e] = 1 if f_pair(m, pi, pi2, e) == e else 0
        for e in [None, *m.events_of("q")]:
            claim = bits if e is None else {**bits, e: 1 - bits[e]}
            mach = build_fixpoint_cfm("p", "q", pi, pi2)
            final_ok = mach._final
            asked.clear()

            def counted(p, state):
                asked[p, state] += 1
                return final_ok(p, state)

            mach._final = counted
            stats: dict = {}
            run = find_accepting_run(mach, attach_annotation(ExtendedMsc(m, claim)), stats=stats)
            assert (run is not None) == (e is None)
            assert set(asked.values()) <= {1}
            searches += bool(asked)
            pruned += stats["pruned"]
    assert searches > 30 and pruned > searches


def test_pruned_counts_moves_dropped_at_last_events():
    pi = parse_path(GOSSIP_PQ, SIG2)
    pi2 = star_prepend(pi)
    mach = build_fixpoint_cfm("p", "q", pi, pi2)
    m = Msc(SIG2, [("p0", "p", "a"), ("q0", "q", "b"), ("q1", "q", "a")], [("p0", "q0")])
    bits = {e: 0 for e in m.events}
    for e in m.events_of("q"):
        bits[e] = 1 if f_pair(m, pi, pi2, e) == e else 0
    stats: dict = {}
    assert find_accepting_run(mach, attach_annotation(ExtendedMsc(m, bits)), stats=stats)
    wrong = {**bits, "q1": 1 - bits["q1"]}
    assert find_accepting_run(mach, attach_annotation(ExtendedMsc(m, wrong)), stats=stats) is None
    assert stats["pruned"] > 0
    u = universal_cfm(SIG3)
    for m in random_corpus(SIG3, 3, seed=11):
        assert find_accepting_run(u, m, stats=stats) is not None
        assert stats["pruned"] == 0
