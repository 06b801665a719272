import random
import tracemalloc

import pytest

from mscgossip import msc as msc_module, tl
from mscgossip.cfm import attach_annotation, find_accepting_run
from mscgossip.constructions import (
    PathTrie,
    _preorder_plan,
    _preorder_steps,
    build_gossip_cfm,
    oracle_gossip_annotation,
)
from mscgossip.corpus import random_corpus
from mscgossip.msc import (
    ExtendedMsc,
    Msc,
    SystemSignature,
    mirror_msc,
    msc_from_json,
    msc_to_json,
)
from mscgossip.tl import (
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
    TlError,
    Until,
    UntilOn,
    check_translation,
    compile_since,
    compile_tl,
    eval_tl,
    expand_derived,
    format_tl,
    mirror_formula,
    parse_tl,
    since_path_sets,
    _dominates,
)
from figures import SIG3, acceptance_formula, fig_flipped

SIG2 = SystemSignature(("p", "q"), ("a", "b"))
CORPUS = random_corpus(SIG2, count=14, seed=3, max_events_per_proc=3)


# -- syntax --------------------------------------------------------------------


def test_parse_examples():
    assert parse_tl("a") == Atom("a")
    assert parse_tl("!( @p | b )") == Not(Or(Proc("p"), Atom("b")))
    assert parse_tl("a S b") == Since(Atom("a"), Atom("b"))
    assert parse_tl("a U (b | @q)") == Until(Atom("a"), Or(Atom("b"), Proc("q")))
    assert parse_tl("X_p a") == NextOn("p", Atom("a"))
    assert parse_tl("a Up_q b") == UntilOn("q", Atom("a"), Atom("b"))
    assert parse_tl("co a") == Co(Atom("a"))
    assert parse_tl("true") == Bool(True)
    assert parse_tl("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))


def test_parse_format_roundtrip():
    texts = [
        "a",
        "!( @p | b )",
        "a S b",
        "(a U b) S (c | !@p)",
        "X_p Y_q a",
        "O_p (a & true)",
        "a Up_p (b & co c)",
        "!!a",
    ]
    for text in texts:
        phi = parse_tl(text)
        assert parse_tl(format_tl(phi)) == phi


def test_parse_errors_are_positioned():
    for bad in ["", "a |", "(a", "a ~ b", "a U", "U a"]:
        with pytest.raises(TlError) as exc:
            parse_tl(bad)
        assert "position" in str(exc.value)


# -- derived-modality expansion ------------------------------------------------


def test_expansion_shapes():
    p, a = Proc("p"), Atom("a")
    nx = expand_derived(NextOn("p", a))
    assert isinstance(nx, Until) and nx.left == Not(p)
    yp = expand_derived(PrevOn("p", a))
    assert isinstance(yp, Since) and yp.left == Not(p)
    up = expand_derived(UntilOn("p", Atom("a"), Atom("b")))
    assert isinstance(up, Or)  # (p ∧ φ2) ∨ (...)
    core = expand_derived(ObsOn("p", a))
    assert "ObsOn" not in repr(core) and "NextOn" not in repr(core)


def test_expansion_preserves_semantics():
    sugars = [
        NextOn("p", Atom("a")),
        PrevOn("q", Atom("b")),
        UntilOn("p", Atom("a"), Atom("b")),
        UntilOn("q", Or(Atom("a"), Proc("p")), Atom("b")),
        ObsOn("p", Atom("a")),
        And(Atom("a"), Proc("q")),
    ]
    for m in CORPUS:
        for s in sugars:
            assert eval_tl(m, s) == eval_tl(m, expand_derived(s))


# -- semantics -----------------------------------------------------------------


def test_proc_atom_values():
    m = fig_flipped()
    v = eval_tl(m, Proc("q"))
    assert v["f0"] and not v["e0"]


def test_co_on_a_chain_is_false():
    m = Msc(SIG2, [("e0", "p", "a"), ("e1", "p", "a"), ("e2", "p", "b")], [])
    v = eval_tl(m, Co(Atom("a")))
    assert not any(v.values())


def test_co_sees_parallel_events():
    m = Msc(SIG2, [("e", "p", "a"), ("f", "q", "b")], [])
    v = eval_tl(m, Co(Atom("b")))
    assert v["e"] and not v["f"]


def test_until_strictness():
    # a U a needs a strictly later witness
    m = Msc(SIG2, [("e0", "p", "a")], [])
    assert eval_tl(m, Until(Atom("a"), Atom("a")))["e0"] is False
    m2 = Msc(SIG2, [("e0", "p", "a"), ("e1", "p", "a")], [])
    v = eval_tl(m2, Until(Atom("a"), Atom("a")))
    assert v["e0"] and not v["e1"]


def test_prev_true_on_fixture():
    # the first q-event has e0 in its past
    m = fig_flipped()
    assert eval_tl(m, PrevOn("p", Bool(True)))["f0"] is True


def test_until_since_mirror_duality():
    combos = [
        (Atom("a"), Atom("b")),
        (Or(Atom("a"), Proc("q")), Atom("a")),
        (Not(Atom("b")), Bool(True)),
    ]
    for m in CORPUS:
        mm = mirror_msc(m)
        for f1, f2 in combos:
            assert eval_tl(m, Until(f1, f2)) == eval_tl(mm, Since(f1, f2))
            assert eval_tl(m, Since(f1, f2)) == eval_tl(mm, Until(f1, f2))


def test_mirror_formula_swaps_operators():
    phi = Since(Atom("a"), Until(Atom("b"), Proc("p")))
    assert mirror_formula(phi) == Until(Atom("a"), Since(Atom("b"), Proc("p")))
    assert mirror_formula(mirror_formula(phi)) == phi


# -- compilation ---------------------------------------------------------------


def test_compile_atom_checks_bits():
    mach = compile_tl(Atom("a"), SIG2)
    m = CORPUS[1]
    bits = mach.annotate(m)
    assert bits == {e: (1 if m.label[e] == "a" else 0) for e in m.events}
    assert mach.decide(ExtendedMsc(m, bits))
    if m.events:
        bad = dict(bits)
        e = m.events[0]
        bad[e] = 1 - bits[e]
        assert not mach.decide(ExtendedMsc(m, bad))


def test_compile_propositional_search_route():
    mach = compile_tl(Or(Atom("a"), Not(Proc("p"))), SIG2)
    for m in CORPUS[:4]:
        bits = mach.annotate(m)
        assert find_accepting_run(mach, attach_annotation(ExtendedMsc(m, bits))) is not None
        if m.events:
            bad = dict(bits)
            bad[m.events[0]] = 1 - bits[m.events[0]]
            assert find_accepting_run(mach, attach_annotation(ExtendedMsc(m, bad))) is None


def test_compile_since_matches_oracle():
    phi = Since(Or(Atom("a"), Atom("b")), Atom("a"))
    mach = compile_tl(phi, SIG2)
    for m in CORPUS:
        want = eval_tl(m, phi)
        assert mach.annotate(m) == {e: int(want[e]) for e in m.events}


def test_compile_until_matches_oracle():
    phi = Until(Atom("b"), Atom("a"))
    mach = compile_tl(phi, SIG2)
    for m in CORPUS[:8]:
        want = eval_tl(m, phi)
        assert mach.annotate(m) == {e: int(want[e]) for e in m.events}


def test_compile_nested_temporal():
    phi = Since(Not(Atom("a")), Until(Atom("a"), Proc("q")))
    mach = compile_tl(phi, SIG2)
    for m in CORPUS[:4]:
        want = eval_tl(m, phi)
        assert mach.annotate(m) == {e: int(want[e]) for e in m.events}


def test_compile_sugar_goes_through_expansion():
    phi = PrevOn("p", Bool(True))
    mach = compile_tl(phi, SIG2)
    for m in CORPUS[:5]:
        want = eval_tl(m, phi)
        assert mach.annotate(m) == {e: int(want[e]) for e in m.events}


def test_compile_three_process_since():
    phi = Since(Or(Atom("a"), Atom("b")), Atom("a"))
    mach = compile_tl(phi, SIG3)
    m = fig_flipped()
    want = eval_tl(m, phi)
    assert mach.annotate(m) == {e: int(want[e]) for e in m.events}


def test_compile_until_matches_oracle_on_three_processes():
    # until runs the mirror pass of the since trie, here over three processes
    rng = random.Random(12)
    mscs = random_corpus(SIG3, count=10, seed=12, max_events_per_proc=3)
    formulas = []
    while len(formulas) < 40:
        phi = acceptance_formula(rng, rng.randrange(1, 4))
        if " U " in format_tl(phi):
            formulas.append(phi)
    for phi in formulas:
        mach = compile_tl(phi, SIG3)
        for m in mscs:
            want = eval_tl(m, phi)
            assert mach.annotate(m) == {e: int(want[e]) for e in m.events}, format_tl(phi)


def test_tl_decide_builds_no_mirror_msc(monkeypatch):
    def refuse(m):
        raise AssertionError("a mirror MSC was built")

    monkeypatch.setattr(msc_module, "mirror_msc", refuse)
    phi = Since(Until(Atom("a"), Proc("q")), Until(Since(Atom("b"), Atom("a")), Proc("p")))
    for m in CORPUS[:6]:
        ok, diffs = check_translation(phi, m)
        assert ok, diffs


def test_compile_co_is_unsupported():
    with pytest.raises(TlError) as exc:
        compile_tl(Co(Atom("a")), SIG2)
    assert "unsupported: external construction" in str(exc.value)


def test_compile_unknown_process():
    with pytest.raises(TlError):
        compile_tl(Proc("zz"), SIG2)


def test_until_machine_relation_is_mirror_defined():
    mach = compile_tl(Until(Atom("a"), Atom("b")), SIG2)
    m = CORPUS[0]
    bits = mach.annotate(m)
    with pytest.raises(TlError):
        find_accepting_run(mach, attach_annotation(ExtendedMsc(m, bits)))


# -- the single-pair dominance machine -----------------------------------------

ABCD_SIG = SystemSignature(("p", "q"), ("a", "b", "c", "d"))
ABCD_CORPUS = random_corpus(ABCD_SIG, count=10, seed=9, max_events_per_proc=3)

PHI_PQ = And(
    Proc("q"),
    Since(Or(Atom("a"), Atom("b")), And(Proc("p"), Or(Atom("a"), Atom("c")))),
)


def test_compile_since_pair_matches_formula():
    cs = compile_since("p", "q", ABCD_SIG)
    for m in ABCD_CORPUS:
        want = eval_tl(m, PHI_PQ)
        got = cs.annotate(m)
        assert got == {e: int(want[e]) for e in m.events}


def test_compile_since_pair_no_witness_is_zero():
    cs = compile_since("p", "q", ABCD_SIG)
    # all p-events labeled b or d: left family is empty of witnesses
    m = Msc(
        ABCD_SIG,
        [("s", "p", "b"), ("r", "q", "a"), ("s2", "p", "d"), ("r2", "q", "c")],
        [("s", "r"), ("s2", "r2")],
    )
    got = cs.annotate(m)
    assert all(got[e] == 0 for e in m.events_of("q"))


def test_strict_dominance_ties_give_zero():
    # the same p-event is both witness and gap violation: c is in a∨c and
    # in the violation letters, so left max = right max and strict fails
    cs = compile_since("p", "q", ABCD_SIG)
    m = Msc(
        ABCD_SIG,
        [("s", "p", "c"), ("x", "p", "d"), ("r", "q", "d")],
        [("x", "r")],
    )
    want = eval_tl(m, PHI_PQ)
    assert want["r"] is False  # the gap event x violates a∨b
    assert cs.annotate(m)["r"] == 0


def test_compile_since_pair_rejects_unknown_process():
    with pytest.raises(TlError):
        compile_since("p", "zz", ABCD_SIG)


def test_abcd_recoding_partitions():
    from mscgossip.tl import _recode

    seen = {_recode(b1, b2) for b1 in (0, 1) for b2 in (0, 1)}
    assert seen == {"a", "b", "c", "d"}
    assert _recode(1, 1) == "a" and _recode(1, 0) == "b"
    assert _recode(0, 1) == "c" and _recode(0, 0) == "d"


# -- the harness ---------------------------------------------------------------


def test_check_translation_atom():
    ok, diffs = check_translation(Atom("a"), CORPUS[2])
    assert ok and diffs == []


def test_check_translation_since_until():
    for phi in [
        Since(Or(Atom("a"), Atom("b")), Atom("a")),
        Until(Atom("b"), Atom("a")),
    ]:
        for m in CORPUS[:3]:
            ok, diffs = check_translation(phi, m)
            assert ok, diffs


def test_check_translation_reports_unsupported():
    with pytest.raises(TlError):
        check_translation(Co(Atom("a")), CORPUS[0])


def random_formula(rng, depth, sig):
    """Co-free random formula for the oracle-equivalence sweep."""
    leaves = [Atom(a) for a in sig.alphabet] + [Proc(p) for p in sig.processes]
    if depth == 0:
        return rng.choice(leaves)
    k = rng.randrange(6)
    if k == 0:
        return rng.choice(leaves)
    if k == 1:
        return Not(random_formula(rng, depth - 1, sig))
    if k == 2:
        return Or(
            random_formula(rng, depth - 1, sig), random_formula(rng, depth - 1, sig)
        )
    if k == 3:
        return And(
            random_formula(rng, depth - 1, sig), random_formula(rng, depth - 1, sig)
        )
    if k == 4:
        return Since(random_formula(rng, 0, sig), random_formula(rng, depth - 1, sig))
    return Until(random_formula(rng, 0, sig), random_formula(rng, depth - 1, sig))


def test_random_formulas_translate_correctly():
    rng = random.Random(17)
    small = random_corpus(SIG2, count=6, seed=8, max_events_per_proc=2)
    checked = 0
    for _ in range(8):
        phi = random_formula(rng, rng.randrange(1, 3), SIG2)
        for m in small[:3]:
            ok, diffs = check_translation(phi, m)
            assert ok, (format_tl(phi), m.events, diffs)
            checked += 1
    assert checked == 24


def test_tl_annotation_memo_is_per_signature():
    # the same formula over a one-process signature caches other bits
    phi = Since(Atom("a"), Atom("b"))
    one_proc = SystemSignature(("p",), ("a", "b"))
    for m in random_corpus(SIG2, 30, seed=3, max_events_per_proc=3):
        compile_tl(phi, one_proc).annotate(m)
        want = eval_tl(m, phi)
        assert compile_tl(phi, SIG2).annotate(m) == {e: int(want[e]) for e in m.events}


def test_since_pair_bits_match_the_preorder_switch_rules():
    # the direct last-event test against the switch-rule recurrence
    checked = 0
    for src in ABCD_SIG.processes:
        for tgt in ABCD_SIG.processes:
            cs = compile_since(src, tgt, ABCD_SIG)
            lf, rt = since_path_sets(ABCD_SIG, src, tgt)
            plan = _preorder_plan(tuple(dict.fromkeys(lf + rt)))
            lf_at = tuple(map(plan.clos.index, lf))
            rt_mask = sum(1 << plan.clos.index(r) for r in rt)
            for m in ABCD_CORPUS:
                got = cs.annotate(m)
                for e, _, rows in _preorder_steps(m, tgt, plan):
                    assert got[e] == _dominates(rows, lf_at, rt_mask), (src, tgt, e)
                    checked += 1
    assert checked == 108


def test_gossip_and_since_maps_on_one_msc_do_not_collide():
    # both routes memoise trie maps on the MSC they read; in either order
    # each must read its own maps
    gossip = build_gossip_cfm(ABCD_SIG)
    pairs = [compile_since(src, tgt, ABCD_SIG) for tgt in "pq" for src in "pq"]
    for m in ABCD_CORPUS:
        want_gossip = oracle_gossip_annotation(m).annot
        want_since = [pair.annotate(msc_from_json(msc_to_json(m))) for pair in pairs]
        for gossip_first in (True, False):
            shared = msc_from_json(msc_to_json(m))
            if gossip_first:
                assert gossip.annotate(shared) == want_gossip
            assert [pair.annotate(shared) for pair in pairs] == want_since
            assert gossip.annotate(shared) == want_gossip
            assert sum(isinstance(key, PathTrie) for key in shared._caches) == 3


def test_since_cores_are_built_only_for_a_search(monkeypatch):
    built = []

    class CountingCore(tl.PreorderCore):
        def __init__(self, q, paths):
            built.append(q)
            super().__init__(q, paths)

    monkeypatch.setattr(tl, "PreorderCore", CountingCore)
    phi = Or(Since(Atom("a"), Atom("b")), Until(Not(Atom("b")), Proc("q")))
    m = next(m for m in CORPUS if m.msg)
    ok, diffs = check_translation(phi, m)
    assert ok, diffs
    assert built == []
    with pytest.raises(TlError):
        compile_tl(Until(Atom("a"), Atom("b")), SIG2)._starts("p")
    assert built == []
    compile_tl(Since(Atom("a"), Atom("b")), SIG2)._starts("p")
    assert sorted(built) == ["p", "p", "q", "q"]


def test_since_and_or_machines_take_their_first_move():
    # the since step is a lazy product of its parts' moves: its first move
    # at one event needs a few of them, never the whole product
    sig1 = SystemSignature(("p",), ("a", "b"))
    m = Msc(sig1, [("e", "p", "a")], [])
    for text in ("a S b", "a | b"):
        phi = parse_tl(text)
        machine = compile_tl(phi, sig1)
        bit = 1 if eval_tl(m, phi)["e"] else 0
        (start,) = machine._starts("p")
        tracemalloc.start()
        try:
            move = next(iter(machine._step("p", start, "local", ("a", bit), None, None)), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert move is not None, text
        assert peak < 100e6, (text, peak)
        if isinstance(phi, Since):
            # both operands' states, then one entry per (src, tgt) pair
            assert len(move[0]) == 2 + len(sig1.processes) ** 2
