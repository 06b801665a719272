import itertools
import json

import pytest

from mscgossip import impossibility
from mscgossip.cfm import (
    BudgetExhausted,
    Cfm,
    Transition,
    accepts,
    find_accepting_run,
    is_deterministic,
)
from mscgossip.impossibility import (
    GOSSIP_SIG,
    FamilyParams,
    _interleaved_structure,
    _with_labels,
    accepted_wrong_labeling,
    build_family_msc,
    naive_gossip_cfm,
    q_label_spec,
    q_labels_correct,
    refute_deterministic,
    splice_family_msc,
)
from mscgossip.msc import (
    Msc,
    MscError,
    SystemSignature,
    is_valid,
    last_on_process,
    linearize,
    msc_to_json,
    validate_msc,
)


def test_family_params_validation():
    with pytest.raises(MscError):
        FamilyParams(0, 0)
    with pytest.raises(MscError):
        FamilyParams(3, 3)
    with pytest.raises(MscError):
        FamilyParams(3, -1)


def test_family_self_checks_name_a_drifted_construction(monkeypatch):
    # the family's labels are checked against their closed form and the MSC
    # against the axioms; a drifted construction fails the checks by name
    spec = impossibility.q_label_spec
    monkeypatch.setattr(impossibility, "q_label_spec", lambda m: dict.fromkeys(spec(m), "a"))
    drifted = r"^family labels disagree with closed form at f0 \(n=3, k=1\)$"
    with pytest.raises(AssertionError, match=drifted):
        build_family_msc(FamilyParams(3, 1))
    monkeypatch.setattr(impossibility, "q_label_spec", spec)
    monkeypatch.setattr(impossibility, "validate_msc", lambda m: ["drifted"])
    with pytest.raises(AssertionError, match=r"^family MSC invalid: \['drifted'\]$"):
        build_family_msc(FamilyParams(3, 1))


def test_family_52_matches_drawn_instance():
    m = build_family_msc(FamilyParams(5, 2))
    assert len(m.events) == 30
    assert len(m.msg) == 15
    assert validate_msc(m) == []
    msg = set(m.msg)
    # direct messages: first k to the low block, the rest to the high block
    assert ("e0", "f0") in msg and ("e2", "f1") in msg
    assert ("e4", "f7") in msg and ("e6", "f8") in msg and ("e8", "f9") in msg
    # every odd p-event goes through r
    for i in range(5):
        assert (f"e{2 * i + 1}", f"g{2 * i}") in msg
        assert (f"g{2 * i + 1}", f"f{2 + i}") in msg
    labels = [m.label[f"f{i}"] for i in range(10)]
    assert labels == ["b", "b", "b"] + ["a"] * 7
    assert q_labels_correct(m)


def test_family_minimal_instance():
    m = build_family_msc(FamilyParams(1, 0))
    assert is_valid(m)
    assert len(m.events) == 6
    assert q_labels_correct(m)


@pytest.mark.parametrize("n,k", [(3, 0), (3, 2), (4, 1), (5, 4), (6, 3)])
def test_family_q_labels_match_oracle(n, k):
    m = build_family_msc(FamilyParams(n, k))
    for f, want in q_label_spec(m).items():
        assert m.label[f] == want
    for i in range(2 * n):
        g = last_on_process(m, "p", f"f{i}")
        assert m.label[f"f{i}"] == m.label[g]


def test_p_and_r_sequences_constant_in_k():
    n = 4

    def action_seq(m, proc):
        return [(m.kind_of(e), m.label[e], m.peer_of(e)) for e in m.events_of(proc)]

    base = build_family_msc(FamilyParams(n, 0))
    for k in range(1, n):
        m = build_family_msc(FamilyParams(n, k))
        assert action_seq(m, "p") == action_seq(base, "p")
        assert action_seq(m, "r") == action_seq(base, "r")


def test_splice_structure_and_labels():
    m = splice_family_msc(5, 0, 2)
    base = build_family_msc(FamilyParams(5, 0))
    assert m.msg == base.msg
    assert m.label["f0"] == "b" and all(m.label[f"f{i}"] == "a" for i in range(1, 10))
    assert not q_labels_correct(m)  # M^0 demands all a
    assert splice_family_msc(5, 0, 1).label["f0"] == "a"  # degenerate pair


def test_with_labels_keeps_the_msc_and_sets_the_given_labels():
    m = build_family_msc(FamilyParams(4, 1))
    before = dict(m.label)
    labels = {e: "d" for e in m.events_of("q")[::2]}
    out = _with_labels(m, labels)
    assert out is not m and out.signature is m.signature
    assert out.events == m.events and out.loc == m.loc and out.msg == m.msg
    assert list(out.label) == list(m.events)
    assert all(out.label[e] == labels.get(e, m.label[e]) for e in m.events)
    assert any(out.label[e] != m.label[e] for e in labels)
    assert m.label == before and linearize(out) == linearize(m)
    assert is_valid(out)


# -- claimants ------------------------------------------------------------------


def _echo_claimant() -> Cfm:
    """One state everywhere; every action allowed; accepts every MSC."""
    sig = GOSSIP_SIG
    states = {p: [f"{p}0"] for p in sig.processes}
    initial = {p: f"{p}0" for p in sig.processes}
    t = []
    for p in sig.processes:
        for x in sig.alphabet:
            t.append(Transition(p, f"{p}0", "local", x, f"{p}0"))
            for peer in sig.processes:
                if peer == p:
                    continue
                t.append(Transition(p, f"{p}0", "send", x, f"{p}0", "m", peer))
                t.append(Transition(p, f"{p}0", "recv", x, f"{p}0", "m", peer))
    return Cfm(sig, ["m"], states, initial, t, [("p0", "q0", "r0")])


def _counting_claimant(modulus: int) -> Cfm:
    """Like the echo machine, but q counts its receives mod the modulus."""
    base = _echo_claimant()
    qs = [f"q{i}" for i in range(modulus)]
    states = dict(base.states, q=qs)
    t = [x for x in base.transitions if x.proc != "q"]
    for x in GOSSIP_SIG.alphabet:
        for peer in ("p", "r"):
            for i in range(modulus):
                t.append(
                    Transition("q", qs[i], "recv", x, qs[(i + 1) % modulus], "m", peer)
                )
    accepting = [("p0", s, "r0") for s in qs]
    return Cfm(GOSSIP_SIG, ["m"], states, base.initial, t, accepting)


CLAIMANTS = {
    "echo": _echo_claimant(),
    "parity": _counting_claimant(2),
    "mod3": _counting_claimant(3),
}


@pytest.mark.parametrize("name", sorted(CLAIMANTS))
def test_claimants_are_deterministic_and_permissive(name):
    c = CLAIMANTS[name]
    assert is_deterministic(c)
    assert accepts(c, build_family_msc(FamilyParams(3, 1)))


@pytest.mark.parametrize("name", sorted(CLAIMANTS))
def test_refute_claimants(name):
    c = CLAIMANTS[name]
    res = refute_deterministic(c)
    assert res.verdict == "accepts-wrong"
    m = res.counterexample
    assert accepts(c, m)
    assert not q_labels_correct(m)


def test_refute_claimants_via_splice():
    for name in ("echo", "parity", "mod3"):
        res = refute_deterministic(CLAIMANTS[name])
        assert "splice" in res.detail


def test_splice_collision_is_genuine():
    # the parity claimant's q-state pairs collide at (0, 2) with n = 5
    c = CLAIMANTS["parity"]
    n = 5
    sigs = {}
    for k in range(n):
        mk = build_family_msc(FamilyParams(n, k))
        run = find_accepting_run(c, mk)
        assert run is not None
        s_k = run.assignment[f"f{k}"].source
        sigs[k] = (s_k, run.assignment[f"f{k + n - 1}"].target)
    assert sigs[0] == sigs[2]
    assert sigs[0] != sigs[1]


def test_refute_naive_machine_reproduces_defect():
    res = refute_deterministic(naive_gossip_cfm())
    assert res.verdict == "accepts-wrong"
    m = res.counterexample
    assert accepts(naive_gossip_cfm(), m)
    spec = q_label_spec(m)
    wrong = sorted(f for f, want in spec.items() if m.label[f] != want)
    assert wrong == ["f2", "f5"]
    assert m.label["f2"] == "b" and spec["f2"] == "a"
    assert m.label["f5"] == "b" and spec["f5"] == "a"


@pytest.mark.parametrize("name", ["naive", "mod3"])
def test_refuter_budget_exhaustion_raises(name):
    # a splice check or a labeling search that runs out raises, so every
    # budget gives the default budget's verdict or BudgetExhausted
    c = naive_gossip_cfm() if name == "naive" else CLAIMANTS[name]
    for budget in (1, 10):
        with pytest.raises(BudgetExhausted):
            refute_deterministic(c, budget=budget)
    full = refute_deterministic(c)
    assert full.verdict == "accepts-wrong"
    res = refute_deterministic(c, budget=100)
    assert (res.verdict, res.detail) == (full.verdict, full.detail)
    assert msc_to_json(res.counterexample) == msc_to_json(full.counterexample)
    if name == "mod3":
        assert full.detail == "splice of runs k=0, k'=3 at n=10"
        assert json.dumps(msc_to_json(full.counterexample)) == json.dumps(
            msc_to_json(splice_family_msc(10, 0, 3))
        )


def test_refute_nondeterministic_verdict():
    c = _echo_claimant()
    t = list(c.transitions) + [Transition("q", "q0", "local", "a", "q0")]
    # duplicate targets keep determinism; add a genuinely conflicting local
    states = dict(c.states, q=["q0", "q1"])
    t.append(Transition("q", "q0", "local", "a", "q1"))
    nd = Cfm(GOSSIP_SIG, ["m"], states, c.initial, t, c.accepting)
    assert refute_deterministic(nd).verdict == "not-deterministic"


def test_refute_needs_processes_p_q_r():
    sig = SystemSignature(("p", "q"), ("a", "b", "d"))
    c = Cfm(sig, ["m"], {"p": ["s"], "q": ["s"]}, {"p": "s", "q": "s"}, [], [("s", "s")])
    with pytest.raises(ValueError, match="^claimant lacks process 'r'$"):
        refute_deterministic(c)


def test_refute_empty_acceptance():
    c = _echo_claimant()
    empty = Cfm(GOSSIP_SIG, ["m"], c.states, c.initial, c.transitions, [])
    res = refute_deterministic(empty)
    assert res.verdict == "rejects-correct"
    assert q_labels_correct(res.counterexample)
    assert not accepts(empty, res.counterexample)


def _wrong_labelings_by_brute_force(c: Cfm, m):
    """Every {b, a} labeling of m's q-events, in order, that c accepts and L forbids."""
    q_events = m.events_of("q")
    for guess in itertools.product("ba", repeat=len(q_events)):
        labels = dict(zip(q_events, guess))
        events = [(e, m.loc[e], labels.get(e, m.label[e])) for e in m.events]
        labeled = Msc(m.signature, events, m.msg)
        if accepts(c, labeled) and not q_labels_correct(labeled):
            yield labeled


def test_labeling_search_matches_brute_force():
    echo = _echo_claimant()
    empty = Cfm(GOSSIP_SIG, ["m"], echo.states, echo.initial, echo.transitions, [])
    claimants = dict(CLAIMANTS, naive=naive_gossip_cfm(), empty=empty)
    structures = [_interleaved_structure()] + [
        build_family_msc(FamilyParams(3, k)) for k in range(3)
    ]
    found_some = False
    for name, c in claimants.items():
        for m in structures:
            want = next(_wrong_labelings_by_brute_force(c, m), None)
            got = accepted_wrong_labeling(c, m)
            assert (got is None) == (want is None), name
            if got is not None:
                found_some = True
                assert accepts(c, got) and not q_labels_correct(got), name
                assert got.label == want.label, name
    assert found_some


def test_labeling_search_is_not_bounded_by_recursion():
    m = build_family_msc(FamilyParams(200, 0))  # 1200 events
    got = accepted_wrong_labeling(_echo_claimant(), m)
    assert got is not None and not q_labels_correct(got)
