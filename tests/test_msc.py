import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from mscgossip.corpus import random_corpus, random_msc
from mscgossip.msc import (
    BOTTOM,
    TOP,
    ExtendedMsc,
    Msc,
    MscError,
    SystemSignature,
    causal_leq,
    causal_lt,
    export_dot,
    extended_msc_from_json,
    is_valid,
    last_on_process,
    linearize,
    mirror_msc,
    msc_from_json,
    msc_to_json,
    validate_msc,
    vector_clocks,
)
from figures import (
    SIG3,
    causal_pairs,
    fig_base,
    fig_flipped,
    links_corpus,
    reference_causal_below,
    reference_kind_peer,
    reference_linearize,
    reference_links,
)

SIG2 = SystemSignature(("p", "q"), ("a", "b"))


def mk(events, messages, sig=SIG2):
    return Msc(sig, events, messages)


# -- validation ---------------------------------------------------------------


def test_signature_rejects_duplicates():
    with pytest.raises(MscError):
        SystemSignature(("p", "p"), ("a",))
    with pytest.raises(MscError):
        SystemSignature(("p",), ())
    with pytest.raises(MscError, match="sentinels cannot be alphabet members"):
        SystemSignature(("p",), ("a", BOTTOM))


def test_proc_index_names_an_unknown_process():
    assert SIG2.proc_index("q") == 1
    with pytest.raises(MscError, match="unknown process 'z'"):
        SIG2.proc_index("z")


def test_valid_simple():
    m = mk([("s", "p", "a"), ("r", "q", "b")], [("s", "r")])
    assert validate_msc(m) == []


def test_duplicate_event_id():
    m = mk([("e", "p", "a"), ("e", "q", "a")], [])
    assert any("duplicate" in v for v in validate_msc(m))


def test_unknown_process_and_label():
    m = mk([("e", "z", "a"), ("f", "p", "c")], [])
    errs = validate_msc(m)
    assert any("unknown process" in v for v in errs)
    assert any("outside the alphabet" in v for v in errs)


def test_message_endpoint_must_be_an_event():
    m = mk([("e", "p", "a")], [("e", "zz")])
    assert "message endpoint 'zz' is not an event" in validate_msc(m)


def test_message_same_process_rejected():
    m = mk([("e", "p", "a"), ("f", "p", "a")], [("e", "f")])
    assert any("stays on one process" in v for v in validate_msc(m))


def test_event_in_two_messages_rejected():
    m = mk(
        [("e", "p", "a"), ("f", "q", "a"), ("g", "q", "a")],
        [("e", "f"), ("e", "g")],
    )
    assert any("2 message pairs" in v for v in validate_msc(m))


def test_fifo_violation_detected():
    # two p->q messages whose receives are swapped
    m = mk(
        [("s1", "p", "a"), ("s2", "p", "a"), ("r1", "q", "a"), ("r2", "q", "a")],
        [("s1", "r2"), ("s2", "r1")],
    )
    assert any("FIFO" in v for v in validate_msc(m))


def test_cycle_detected():
    # each process receives before it sends, so the two messages form a cycle
    m = mk(
        [("r1", "p", "a"), ("s1", "p", "a"), ("r2", "q", "a"), ("s2", "q", "a")],
        [("s1", "r2"), ("s2", "r1")],
    )
    errs = validate_msc(m)
    assert any("cycle" in v for v in errs)


def test_cycle_behind_an_emittable_prefix():
    # e0 and f0 can be emitted; after them e1 waits on f2, which follows f1,
    # which waits on e2, which follows e1
    m = mk(
        [("e0", "p", "a"), ("e1", "p", "a"), ("e2", "p", "b"),
         ("f0", "q", "a"), ("f1", "q", "a"), ("f2", "q", "b")],
        [("f2", "e1"), ("e2", "f1")],
    )
    with pytest.raises(MscError, match="cannot linearize a cyclic MSC"):
        linearize(m)
    assert "order" not in m._caches
    assert validate_msc(m) == ["proc_succ ∪ msg has a cycle; ≤ is not a partial order"]


def test_fig_fixtures_valid():
    assert is_valid(fig_base())
    assert is_valid(fig_flipped())


# -- causal order -------------------------------------------------------------


def test_causal_sentinels():
    m = fig_base()
    assert causal_leq(m, BOTTOM, "e0")
    assert causal_leq(m, "e0", TOP)
    assert causal_leq(m, BOTTOM, TOP)
    assert not causal_leq(m, TOP, "e0")
    assert not causal_leq(m, "e0", BOTTOM)
    assert causal_leq(m, BOTTOM, BOTTOM) and causal_leq(m, TOP, TOP)
    # the sentinels print by name and are never copied
    assert (repr(BOTTOM), repr(TOP)) == ("BOTTOM", "TOP")
    assert copy.deepcopy([BOTTOM, TOP]) == [BOTTOM, TOP]
    assert copy.deepcopy(BOTTOM) is BOTTOM


def test_causal_order_fig():
    m = fig_base()
    assert causal_lt(m, "e0", "f0")
    assert causal_lt(m, "e1", "f2")  # via r
    assert causal_lt(m, "e5", "f4")  # e5 -> g4 |< g5 -> f4
    assert not causal_leq(m, "e6", "f5")
    assert not causal_leq(m, "f0", "g0")
    assert not causal_leq(m, "e7", "f6") and not causal_leq(m, "f6", "e7")  # concurrent


@pytest.mark.parametrize("derived", [False, True])
def test_causal_order_rejects_unknown_ids(derived):
    # a fresh MSC has derived nothing yet; linearize derives the order
    def msc():
        m = msc_from_json(msc_to_json(fig_base()))
        if derived:
            linearize(m)
        return m

    for e, f in (("zz", "f0"), ("e0", "zz"), ("zz", "yy")):
        for relation in (causal_leq, causal_lt):
            m = msc()
            with pytest.raises(MscError, match="unknown event id"):
                relation(m, e, f)
            assert causal_lt(m, "e1", "f2") and not causal_leq(m, "f0", "g0")


def test_linearize_is_topological_and_deterministic():
    m = fig_base()
    order = linearize(m)
    assert sorted(order) == sorted(m.events)
    pos = {e: i for i, e in enumerate(order)}
    for a, b in causal_pairs(m):
        assert pos[a] < pos[b]
    assert linearize(fig_base()) == order


def test_linearize_holds_a_receive_until_its_send():
    # b0 heads q but receives from y1; a1 is reached through a0 before its
    # send z0; the least id goes first among the events that are ready
    heads = mk([("y0", "p", "a"), ("y1", "p", "a"), ("b0", "q", "b")], [("y1", "b0")])
    later = mk([("z0", "p", "a"), ("a0", "q", "b"), ("a1", "q", "b")], [("z0", "a1")])
    assert linearize(heads) == ("y0", "y1", "b0") == reference_linearize(heads)
    assert linearize(later) == ("a0", "z0", "a1") == reference_linearize(later)


def test_event_table_matches_the_name_keyed_neighbours():
    # each event's ⊏-predecessor, ⊏-successor, sender and receiver, and its
    # kind and peer, against a reference read off events_of and msg alone
    for m in links_corpus():
        proc, *links = m._links
        ref = reference_links(m)
        assert [m.signature.processes[c] for c in proc] == [m.loc[e] for e in m.events]
        for i, e in enumerate(m.events):
            got = [m.events[link[i]] if link[i] >= 0 else None for link in links]
            assert got == ref[e], e
            assert (m.kind_of(e), m.peer_of(e)) == reference_kind_peer(m, ref, e)


def test_linearize_equals_the_all_events_heap():
    for m in links_corpus():
        assert linearize(m) == reference_linearize(m)


def test_causal_rows_match_a_search_along_the_relation():
    for m in links_corpus():
        below, above = m.causal_rows
        assert below == reference_causal_below(m)
        n = len(m.events)
        assert above == [sum(1 << i for i in range(n) if below[i] >> j & 1) for j in range(n)]


def test_last_on_process_fig():
    m = fig_base()
    assert last_on_process(m, "p", "f5") == "e5"
    assert last_on_process(m, "p", "f2") == "e2"
    assert last_on_process(m, "q", "e0") is BOTTOM
    assert last_on_process(m, "p", "f0") == "e0"
    assert last_on_process(m, "r", "f1") is BOTTOM
    assert last_on_process(m, "r", "f2") == "g1"
    # strictness: the event itself does not count
    assert last_on_process(m, "q", "f0") is BOTTOM
    assert last_on_process(m, "q", "f3") == "f2"
    with pytest.raises(MscError, match="unknown process 'z'"):
        last_on_process(m, "z", "f3")
    with pytest.raises(MscError, match="unknown event id 'zz'"):
        last_on_process(m, "q", "zz")


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), max_events=st.integers(0, 5))
def test_vector_clocks_match_last_on_process(k, seed, max_events):
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events)
    clocks = vector_clocks(m)
    assert set(clocks) == set(m.events)
    for e in m.events:
        assert clocks[e] == tuple(last_on_process(m, p, e) for p in sig.processes), e


# -- property tests over random corpora --------------------------------------


CORPUS = random_corpus(SIG3, count=60, seed=11)


@pytest.mark.parametrize("i", range(0, 60, 7))
def test_random_corpus_valid(i):
    assert validate_msc(CORPUS[i]) == []


def test_causal_is_partial_order():
    for m in CORPUS[:25]:
        ev = m.events
        for e in ev:
            assert causal_leq(m, e, e)
        for e in ev:
            for f in ev:
                if causal_leq(m, e, f) and causal_leq(m, f, e):
                    assert e == f
                for g in ev:
                    if causal_leq(m, e, f) and causal_leq(m, f, g):
                        assert causal_leq(m, e, g)


def test_mirror_is_involution_and_valid():
    for m in CORPUS[:30]:
        mm = mirror_msc(m)
        assert validate_msc(mm) == []
        back = mirror_msc(mm)
        assert back.events == m.events
        assert set(back.msg) == set(m.msg)
        # order is exactly reversed
        for e, f in zip(m.events, m.events[1:]):
            if m.loc[e] == m.loc[f]:
                assert causal_leq(mm, f, e) or not causal_leq(mm, e, f)


def test_mirror_reverses_causality():
    for m in CORPUS[:20]:
        mm = mirror_msc(m)
        for e in m.events:
            for f in m.events:
                assert causal_leq(m, e, f) == causal_leq(mm, f, e)


def test_json_roundtrip():
    for m in CORPUS[:10]:
        obj = msc_to_json(m)
        back = msc_from_json(obj)
        assert back.events == m.events
        assert back.msg == m.msg
        assert back.label == m.label
        assert back.signature == m.signature


def _broken(edit):
    obj = msc_to_json(fig_base())
    edit(obj)
    return obj


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["messages"].append(["e0"]), "a message must be a pair of event ids"),
    (lambda o: o["messages"].append("e0e1"), "a message must be a pair of event ids"),
    (lambda o: o["messages"][0].append("e2"), "a message must be a pair of event ids"),
    (lambda o: o["events"][0].update(id=0), "event ids, procs and message ends must be strings"),
    (lambda o: o["events"][-1].update(proc=["p"]), "event ids, procs and message ends must be strings"),
    (lambda o: o["messages"][-1].__setitem__(1, None), "event ids, procs and message ends must be strings"),
    # a message that is no pair is reported before a name that is no string
    (lambda o: (o["events"][0].update(id=0), o["messages"].append([])),
     "a message must be a pair of event ids"),
    (lambda o: o["events"][1].pop("label"), "'label'"),
    (lambda o: o.pop("messages"), "'messages'"),
])
def test_malformed_msc_json_messages(edit, message):
    with pytest.raises(MscError, match=f"^malformed MSC object: {message}$"):
        msc_from_json(_broken(edit))


def test_extended_roundtrip():
    m = fig_base()
    annot = {e: m.label[e] for e in m.events}
    obj = msc_to_json(m, annot)
    ext = extended_msc_from_json(obj)
    assert ext.annot == annot
    ext2 = ext.with_annot("e0", "d")
    assert ext2.annot["e0"] == "d" and ext.annot["e0"] == "b"


def test_extended_requires_full_annotation():
    m = fig_base()
    with pytest.raises(MscError):
        ExtendedMsc(m, {"e0": 1})
    with pytest.raises(MscError, match="extended MSC requires an 'annot' field per event"):
        extended_msc_from_json(msc_to_json(m))


def test_export_dot_mentions_everything():
    m = fig_base()
    dot = export_dot(m, annot={e: "x" for e in m.events})
    for e in m.events:
        assert f'"{e}"' in dot
    assert dot.count("color=blue") == len(m.msg)


def test_random_msc_determinism():
    a = random_corpus(SIG3, 5, seed=3)
    b = random_corpus(SIG3, 5, seed=3)
    for x, y in zip(a, b):
        assert x.events == y.events and x.msg == y.msg and x.label == y.label
    c = random_msc(SIG3, random.Random(4))
    assert validate_msc(c) == []
