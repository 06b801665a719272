import random

import pytest

from mscgossip.cfm import (
    BudgetExhausted,
    Cfm,
    CfmError,
    LazyCfm,
    Transition,
    accepts,
    attach_annotation,
    cfm_from_json,
    cfm_to_json,
    detach_annotation,
    find_accepting_run,
    is_deterministic,
    lower_generalized_initial,
    mirror_cfm,
    oracle_accepts,
    product,
    project_annotation,
    relabel,
    universal_cfm,
    validate_run,
)
from mscgossip.corpus import enumerate_mscs, random_cfm, random_corpus
from mscgossip.impossibility import naive_gossip_cfm
from mscgossip.msc import ExtendedMsc, Msc, SystemSignature, linearize, mirror_msc
from figures import SIG3, fig_base, fig_flipped

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


def test_empty_acc_rejects_everything():
    c = Cfm(
        SIG3, NAIVE.messages, NAIVE.states, NAIVE.initial, NAIVE.transitions, []
    )
    assert not accepts(c, fig_base())


def test_budget_exhaustion_is_distinct():
    with pytest.raises(BudgetExhausted):
        accepts(NAIVE, fig_base(), budget=5)


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


def test_acceptance_independent_of_linearization():
    rng = random.Random(9)
    m = fig_base()
    base = accepts(NAIVE, m)
    for _ in range(20):
        order = _random_linearization(m, rng)
        assert (find_accepting_run(NAIVE, m, order=order) is not None) == base


def _random_linearization(m, rng):
    preds = {e: 0 for e in m.events}
    succs = {e: [] for e in m.events}
    for a, b in list(m.proc_succ) + list(m.msg):
        succs[a].append(b)
        preds[b] += 1
    ready = [e for e in m.events if preds[e] == 0]
    out = []
    while ready:
        e = ready.pop(rng.randrange(len(ready)))
        out.append(e)
        for f in succs[e]:
            preds[f] -= 1
            if preds[f] == 0:
                ready.append(f)
    return out


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


def test_lower_generalized_initial_equivalence():
    rng = random.Random(41)
    for i in range(6):
        c = mirror_cfm(random_cfm(SIG2, rng))  # mirrors have generalized starts
        assert c.generalized_initial is not None
        low = lower_generalized_initial(c)
        assert low.generalized_initial is None
        for m in CORPUS[i * 6 : i * 6 + 6]:
            assert accepts(low, m) == accepts(c, m)


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
