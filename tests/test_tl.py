import functools
import random
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from mscgossip import msc as msc_module, tl
from mscgossip.cfm import attach_annotation, find_accepting_run
from mscgossip.constructions import (
    PathTrie,
    _preorder_plan,
    build_gossip_cfm,
    oracle_gossip_annotation,
    preorder_rows,
)
from mscgossip.corpus import enumerate_mscs, random_corpus, random_msc
from mscgossip.msc import (
    ExtendedMsc,
    Msc,
    SystemSignature,
    mirror_msc,
    msc_from_json,
    msc_to_json,
)
from mscgossip.paths import gossip_paths_between
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
    compile_tl,
    eval_tl,
    expand_derived,
    format_tl,
    parse_tl,
    since_path_sets,
    _dominance,
    _dominance_tests,
    _dominates,
)
from figures import (
    SIG3,
    acceptance_formula,
    fig_flipped,
    mirror_formula,
    reference_dominance,
    reference_eval_tl,
)

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


def test_parse_ends_at_trailing_blanks_and_refuses_trailing_input():
    assert parse_tl("a S b  ") == parse_tl("a S b")
    with pytest.raises(TlError, match="^syntax error at position 1: trailing input$"):
        parse_tl("a(b)")


@pytest.mark.parametrize("text, message", [
    ("a b", "position 2: trailing input"),
    ("a  ~ b", "position 3: '~ b'"),
    ("  U a", "position 2: 'U' is an operator, not an atom"),
    ("(a  b)", "position 4: expected ')'"),
    ("a |  )", "position 5: expected a formula"),
])
def test_parse_errors_point_at_the_token_not_the_blanks_before_it(text, message):
    with pytest.raises(TlError) as exc:
        parse_tl(text)
    assert str(exc.value) == f"syntax error at {message}"


@dataclass(frozen=True)
class _Odd(tl.TlFormula):
    """A formula node that no pass of the logic knows."""


@pytest.mark.parametrize("run", [
    tl.format_tl,
    tl.expand_derived,
    lambda phi: eval_tl(ONE_EVENT, phi),
    lambda phi: tl._make_machine(phi, SIG2),
])
def test_an_unknown_formula_node_is_refused(run):
    with pytest.raises(TlError, match=r"^(unknown formula node|cannot compile) _Odd\(\)$"):
        run(_Odd())


def _nested(depth: int, wrap) -> "tl.TlFormula":
    """A formula ``depth`` levels deep: an atom under depth - 1 wraps."""
    phi = Atom("a")
    for _ in range(depth - 1):
        phi = wrap(phi)
    return phi


ONE_EVENT = Msc(SIG2, [("e1", "p", "a")], [])


def test_parse_rejects_nesting_beyond_the_bound():
    bound = tl.MAX_DEPTH
    assert parse_tl("(" * bound + "a" + ")" * bound) == Atom("a")
    assert parse_tl("!" * (bound - 1) + "a") == _nested(bound, Not)
    for text in (
        "(" * (bound + 1) + "a" + ")" * (bound + 1),
        "!" * bound + "a",
        " | ".join(["a"] * (bound + 1)),
        "(" * 300 + "a" + ")" * 300,
        "!" * 600 + "a",
    ):
        with pytest.raises(TlError, match=f"deeper than {bound} levels"):
            parse_tl(text)


@pytest.mark.parametrize("wrap", [Not, lambda f: Since(Atom("b"), f), lambda f: Or(f, Proc("q"))])
def test_formulas_at_the_bound_evaluate_and_translate(wrap):
    phi = _nested(tl.MAX_DEPTH, wrap)
    assert set(eval_tl(ONE_EVENT, phi)) == {"e1"}
    ok, diffs = check_translation(phi, ONE_EVENT)
    assert ok, diffs


def test_formulas_beyond_the_bound_are_refused_without_recursing():
    for depth in (tl.MAX_DEPTH + 1, 5000):
        phi = _nested(depth, Not)
        for run in (lambda: eval_tl(ONE_EVENT, phi), lambda: compile_tl(phi, SIG2)):
            with pytest.raises(TlError, match=f"deeper than {tl.MAX_DEPTH} levels"):
                run()
    # within the bound as written, beyond it once X_p is expanded
    with pytest.raises(TlError, match="once expanded"):
        compile_tl(_nested(40, lambda f: NextOn("p", f)), SIG2)


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


def full_formula(rng, depth, sig):
    """A random formula over the full grammar: label and process atoms,
    true and false, ! | & S U co and, on a random process, X_p Y_p O_p Up_p."""
    leaves = [Atom("a"), Atom("b"), Bool(True), Bool(False), *map(Proc, sig.processes)]
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    p = rng.choice(sig.processes)
    unary = [Not, Co, *(functools.partial(op, p) for op in (NextOn, PrevOn, ObsOn))]
    binary = [Or, And, Since, Until, functools.partial(UntilOn, p)]
    k = rng.randrange(len(unary) + len(binary))
    if k < len(unary):
        return unary[k](full_formula(rng, depth - 1, sig))
    return binary[k - len(unary)](full_formula(rng, depth - 1, sig), full_formula(rng, depth - 1, sig))


def _equivalence_cases():
    """Seeded (MSC, formula) pairs at k = 1-4: every MSC shape of up to four
    events (k <= 2) or three (k >= 3), randomly labelled, and random_msc
    draws, two formulas of depth up to 3 each."""
    rng = random.Random(23)
    for k in (1, 2, 3, 4):
        sig = SystemSignature(tuple(f"p{i}" for i in range(1, k + 1)), ("a", "b"))
        shapes = list(enumerate_mscs(sig, 4 if k <= 2 else 3, max_labelings=1))
        draws = [random_msc(sig, rng, rng.randrange(1, 5)) for _ in range(40)]
        for m in shapes + draws:
            m = m.relabelled(sig, {e: rng.choice(sig.alphabet) for e in m.events})
            for _ in range(2):
                yield m, full_formula(rng, rng.randrange(1, 4), sig)


def test_mask_evaluator_matches_the_brute_force():
    cases = 0
    for m, phi in _equivalence_cases():
        assert eval_tl(m, phi) == reference_eval_tl(m, phi), (format_tl(phi), m.events, m.msg)
        cases += 1
    assert cases >= 500


def _k3_msc(events: int, seed: int) -> Msc:
    sig = SystemSignature(("p1", "p2", "p3"), ("a", "b"))
    rng = random.Random(seed)
    per_proc = round(events / 2.25)  # random_msc gives ~0.75 of the maximum
    return next(
        m
        for m in iter(lambda: random_msc(sig, rng, per_proc), None)
        if abs(len(m.events) - events) <= events // 10
    )


def test_mask_evaluator_matches_the_brute_force_at_k3_n120():
    m = _k3_msc(120, 120)
    phi = parse_tl("((a S b) U (b S a)) | co (X_p1 a & Y_p2 b) | O_p3 (a Up_p1 b)")
    assert eval_tl(m, phi) == reference_eval_tl(m, phi)


def test_mask_evaluator_returns_at_k3_n250():
    # the brute force takes most of a second here per S/U pair
    m = _k3_msc(250, 250)
    for text in ("(a S b) U (b S a)", "co a"):
        assert set(eval_tl(m, parse_tl(text))) == set(m.events)


def test_eval_of_nested_first_observable_is_linear():
    # each O_p expands with its body four times; shared, not copied
    phi = _nested(13, lambda f: ObsOn("p", f))
    assert eval_tl(ONE_EVENT, phi) == {"e1": True}
    core = expand_derived(phi)
    nodes, todo = set(), [core]
    while todo:
        f = todo.pop()
        if id(f) not in nodes:
            nodes.add(id(f))
            todo += [getattr(f, name) for name in ("sub", "left", "right") if hasattr(f, name)]
    assert len(nodes) < 50 * 12
    assert core.depth > tl.MAX_DEPTH
    with pytest.raises(TlError, match="once expanded"):
        compile_tl(phi, SIG2)


@pytest.mark.parametrize("labels", ["ab", "ba"])
def test_first_observable_at_a_process_event_is_the_event_itself(labels):
    # strict past: at a p-event, the first p-event outside its past is the
    # event itself, p's first event included
    m = Msc(SIG2, [("e1", "p", labels[0]), ("e2", "p", labels[1])], [])
    phi = ObsOn("p", Atom("a"))
    want = {"e1": labels[0] == "a", "e2": labels[1] == "a"}
    assert eval_tl(m, phi) == want
    assert reference_eval_tl(m, phi) == want
    assert eval_tl(m, expand_derived(phi)) == want


@pytest.mark.parametrize("text", ["@zz S a", "X_zz a", "Y_zz a", "O_zz a", "a Up_zz b", "false & @zz"])
def test_eval_rejects_an_unknown_process(text):
    with pytest.raises(TlError, match="unknown process 'zz'"):
        eval_tl(ONE_EVENT, parse_tl(text))


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


def test_since_machine_accepts_the_empty_msc_by_its_final_test():
    # with no event to step, the search's closing check alone decides,
    # and it reads every part's final test
    mach = compile_tl(Since(Atom("a"), Atom("b")), SIG2)
    empty = attach_annotation(ExtendedMsc(Msc(SIG2, [], []), {}))
    stats = {}
    run = find_accepting_run(mach, empty, stats=stats)
    assert run is not None and run.assignment == {}
    assert stats == {"visited": 1, "steps": 0, "pruned": 0}


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


def test_recoded_msc_shares_the_base_structure(monkeypatch):
    # each since/until node recodes the MSC over ABCD; the copy reads the
    # base's linearization and message maps, and only its trie maps are its own
    recoded = []
    abcd_msc = tl._abcd_msc

    def recording(m, bits1, bits2):
        recoded.append((m, abcd_msc(m, bits1, bits2)))
        return recoded[-1][1]

    monkeypatch.setattr(tl, "_abcd_msc", recording)
    phi = Since(Until(Atom("a"), Proc("q")), Until(Since(Atom("b"), Atom("a")), Proc("p")))
    mach = compile_tl(phi, SIG2)
    for m in CORPUS[:6]:
        m = msc_from_json(msc_to_json(m))  # nothing derived yet
        want = eval_tl(m, phi)
        assert mach.annotate(m) == {e: int(want[e]) for e in m.events}
    assert len(recoded) == 6 * 4
    for base, copy in recoded:
        assert copy.events is base.events and copy.msg is base.msg
        assert msc_module.linearize(copy) is msc_module.linearize(base)
        assert copy.index is base.index and copy.send_of is base.send_of
        assert copy.signature.alphabet == tl.ABCD and copy.label is not base.label
        assert any(isinstance(key, PathTrie) for key in copy._caches)
        assert not any(isinstance(key, PathTrie) for key in base._caches)
    with pytest.raises(msc_module.MscError):
        CORPUS[0].relabelled(SIG3, dict(CORPUS[0].label))


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


def _pair_bits(m, src="p", tgt="q"):
    """The one-pair dominance bits of (src, tgt) on m."""
    return _dominance(m, ABCD_SIG, ((src, tgt),), False)


def test_compile_since_pair_matches_formula():
    for m in ABCD_CORPUS:
        want = eval_tl(m, PHI_PQ)
        got = _pair_bits(m)
        assert got == {e: int(want[e]) for e in m.events}


def test_compile_since_pair_no_witness_is_zero():
    # all p-events labeled b or d: left family is empty of witnesses
    m = Msc(
        ABCD_SIG,
        [("s", "p", "b"), ("r", "q", "a"), ("s2", "p", "d"), ("r2", "q", "c")],
        [("s", "r"), ("s2", "r2")],
    )
    got = _pair_bits(m)
    assert all(got[e] == 0 for e in m.events_of("q"))


def test_strict_dominance_ties_give_zero():
    # the same p-event is both witness and gap violation: c is in a∨c and
    # in the violation letters, so left max = right max and strict fails
    m = Msc(
        ABCD_SIG,
        [("s", "p", "c"), ("x", "p", "d"), ("r", "q", "d")],
        [("x", "r")],
    )
    want = eval_tl(m, PHI_PQ)
    assert want["r"] is False  # the gap event x violates a∨b
    assert _pair_bits(m)["r"] == 0


def scanned_since_path_sets(sig, src, tgt):
    """The since families built path by path, each right path kept only if
    not met before."""
    left = [tl._label_prepend(x, pi) for x in "ac" for pi in gossip_paths_between(sig, src, tgt)]
    right = []
    for r in sig.processes:
        for pi1 in gossip_paths_between(sig, src, r):
            for letter in ("c", "d"):
                for pi2 in gossip_paths_between(sig, r, tgt):
                    cand = tl._label_join(pi1, letter, pi2)
                    if cand not in right:
                        right.append(cand)
    return tuple(left), tuple(right)


def test_since_families_hold_no_duplicate():
    # a right path π1·[x]·π2 splits only at its one label test, so no scan
    # for repeats is needed: the families are those a scan builds, in order
    for k in (1, 2, 3, 4):
        sig = SystemSignature(("p", "q", "r", "s")[:k], tl.ABCD)
        for src in sig.processes:
            for tgt in sig.processes:
                lf, rt = since_path_sets(sig, src, tgt)
                if k <= 3:
                    assert (lf, rt) == scanned_since_path_sets(sig, src, tgt), (src, tgt)
                assert len(set(lf)) == len(lf) and len(set(rt)) == len(rt), (src, tgt)


def test_compile_since_pair_rejects_unknown_process():
    with pytest.raises(TlError):
        compile_tl(Since(Proc("p"), Proc("zz")), ABCD_SIG)


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


def test_check_translation_names_the_first_disagreeing_event(monkeypatch):
    # a machine that annotates !a for a: the oracle bits are rejected, and
    # the diff names the first event where the two disagree
    m = Msc(SIG2, [("e1", "p", "b"), ("e2", "p", "a"), ("f1", "q", "a")], [])
    wrong = compile_tl(Not(Atom("a")), SIG2)
    monkeypatch.setattr(tl, "compile_tl", lambda phi, sig: wrong)
    ok, diffs = check_translation(Atom("a"), m)
    assert not ok
    assert diffs[0] == "correct annotation rejected at 'e1': oracle 0, machine 1"


def test_check_translation_names_an_accepted_mutation(monkeypatch):
    # an oracle that is wrong at e2: the machine rejects its bits there
    # and accepts the mutation there, which is the right annotation
    m = Msc(SIG2, [("e1", "p", "b"), ("e2", "p", "a")], [])
    eval_right = tl.eval_tl
    monkeypatch.setattr(tl, "eval_tl", lambda m, phi: {**eval_right(m, phi), "e2": False})
    assert check_translation(Atom("a"), m) == (False, [
        "correct annotation rejected at 'e2': oracle 0, machine 1",
        "mutation at 'e2' accepted",
    ])


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


def _temporal_nodes(phi):
    if isinstance(phi, (Since, Until)):
        yield phi
    for field in ("sub", "left", "right"):
        if hasattr(phi, field):
            yield from _temporal_nodes(getattr(phi, field))


def test_compound_operand_formulas_translate_correctly():
    # the benchmark's shape, which random_formula does not draw: 1-3 S/U
    # per formula, some with a compound left operand, on 2-process MSCs of
    # 4-6 events; ten formulas per S/U count
    rng = random.Random(29)
    todo = {1: 10, 2: 10, 3: 10}
    while any(todo.values()):
        phi = acceptance_formula(rng, rng.randrange(1, 4))
        nodes = list(_temporal_nodes(phi))
        if not todo.get(len(nodes)) or all(isinstance(n.left, (Atom, Proc)) for n in nodes):
            continue
        m = random_msc(SIG2, rng, 3)
        while not 4 <= len(m.events) <= 6:
            m = random_msc(SIG2, rng, 3)
        ok, diffs = check_translation(phi, m)
        assert ok, (format_tl(phi), m.events, m.msg, diffs)
        todo[len(nodes)] -= 1


def test_tl_annotation_memo_is_per_signature():
    # the same formula over a one-process signature caches other bits
    phi = Since(Atom("a"), Atom("b"))
    one_proc = SystemSignature(("p",), ("a", "b"))
    for m in random_corpus(SIG2, 30, seed=3, max_events_per_proc=3):
        compile_tl(phi, one_proc).annotate(m)
        want = eval_tl(m, phi)
        assert compile_tl(phi, SIG2).annotate(m) == {e: int(want[e]) for e in m.events}


def test_tl_annotation_memo_is_per_formula_not_per_text():
    # format_tl prints Atom(1) and Atom("1") alike
    sig = SystemSignature(("p",), (1, "1"))
    m = Msc(sig, [("e", "p", 1), ("f", "p", "1")], [])
    assert format_tl(Atom(1)) == format_tl(Atom("1"))
    assert compile_tl(Atom(1), sig).annotate(m) == {"e": 1, "f": 0}
    assert compile_tl(Atom("1"), sig).annotate(m) == {"e": 0, "f": 1}


def test_a_shared_subformula_is_compiled_once(monkeypatch):
    # Up_p's expansion holds its left operand twice as one object: each
    # object is walked once, so the walk is linear in the distinct objects,
    # not exponential in the nesting
    calls = []
    compile_core = tl._compile_core

    def counted(phi, *args):
        calls.append(id(phi))
        return compile_core(phi, *args)

    monkeypatch.setattr(tl, "_compile_core", counted)
    phi = _nested(9, lambda f: UntilOn("p", f, Atom("b")))
    core = expand_derived(phi)
    nodes, edges, todo = set(), 0, [core]
    while todo:
        f = todo.pop()
        if id(f) not in nodes:
            nodes.add(id(f))
            subs = [getattr(f, name) for name in ("sub", "left", "right") if hasattr(f, name)]
            edges += len(subs)
            todo += subs
    compile_tl(phi, SIG2)
    assert len(set(calls)) == len(nodes)
    assert len(calls) == edges + 1 < 2 ** 8
    for m in (ONE_EVENT, *CORPUS[:3]):
        assert check_translation(phi, m) == (True, [])


def test_equal_subformulas_share_one_machine(monkeypatch):
    # Or's operands are one machine, whose annotation pass runs once per MSC
    operands, passes = [], []
    or_machine, dominance = tl._or_machine, tl._dominance

    def recording_or(phi, sig, m1, m2):
        operands.append((m1, m2))
        return or_machine(phi, sig, m1, m2)

    def counted_dominance(m, *args):
        passes.append(m)
        return dominance(m, *args)

    monkeypatch.setattr(tl, "_or_machine", recording_or)
    monkeypatch.setattr(tl, "_dominance", counted_dominance)
    phi = Or(Since(Atom("a"), Atom("b")), Since(Atom("a"), Atom("b")))
    compile_tl(phi, SIG2)
    [(m1, m2)] = operands
    assert m1 is m2
    for m in CORPUS[:6]:
        assert check_translation(phi, m) == (True, [])
    assert len(passes) == 6


@pytest.mark.parametrize("claim", [2, "1"])
def test_decide_raises_on_a_non_bit_claim(claim):
    # the direct route and the search step alike
    m = Msc(ABCD_SIG, [("s", "p", "a"), ("r", "q", "b")], [("s", "r")])
    machine = compile_tl(Since(Atom("a"), Atom("b")), ABCD_SIG)
    with pytest.raises(TlError):
        machine.decide(ExtendedMsc(m, {"s": claim, "r": 0}))
    [start] = machine._starts("p")
    with pytest.raises(TlError):
        next(machine._step("p", start, "send", ("a", claim), "q", None))


def test_since_pair_bits_match_the_preorder_switch_rules():
    # the direct last-event test against the rows of ⪯, which
    # test_preorder_rows_match_the_switch_rules ties to the switch rules
    checked = 0
    for src in ABCD_SIG.processes:
        for tgt in ABCD_SIG.processes:
            lf, rt = since_path_sets(ABCD_SIG, src, tgt)
            paths = tuple(dict.fromkeys(lf + rt))
            clos = _preorder_plan(paths)[0]
            lf_at = tuple(map(clos.index, lf))
            rt_mask = sum(1 << clos.index(r) for r in rt)
            for m in ABCD_CORPUS:
                got = _pair_bits(m, src, tgt)
                for e, rows in preorder_rows(m, tgt, paths).items():
                    assert got[e] == _dominates(rows, lf_at, rt_mask), (src, tgt, e)
                    checked += 1
    assert checked == 108


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    max_events=st.integers(0, 5),
    mirror=st.booleans(),
)
def test_compiled_dominance_matches_the_reference(k, seed, max_events, mirror):
    # every pair at once, as the since/until machines call it, and each
    # pair alone; the tests are compiled once per
    # signature, direction and pair set
    sig = SystemSignature(("p", "q", "r")[:k], tl.ABCD)
    m = random_msc(sig, random.Random(seed), max_events)
    every_pair = tuple((src, tgt) for tgt in sig.processes for src in sig.processes)
    for pairs in (every_pair, *((pair,) for pair in every_pair)):
        got = _dominance(m, sig, pairs, mirror)
        want = reference_dominance(m, sig, pairs, mirror)
        assert list(got.items()) == list(want.items()), (pairs, mirror)
        assert all(type(bit) is int for bit in got.values())
        assert _dominance_tests(sig, mirror, pairs) is _dominance_tests(sig, mirror, pairs)


def test_gossip_and_since_maps_on_one_msc_do_not_collide():
    # both routes memoise trie maps on the MSC they read; in either order
    # each must read its own maps
    gossip = build_gossip_cfm(ABCD_SIG)
    pairs = [(src, tgt) for tgt in "pq" for src in "pq"]
    for m in ABCD_CORPUS:
        want_gossip = oracle_gossip_annotation(m).annot
        want_since = [_pair_bits(msc_from_json(msc_to_json(m)), *pair) for pair in pairs]
        for gossip_first in (True, False):
            shared = msc_from_json(msc_to_json(m))
            if gossip_first:
                assert gossip.annotate(shared) == want_gossip
            assert [_pair_bits(shared, *pair) for pair in pairs] == want_since
            assert gossip.annotate(shared) == want_gossip
            assert sum(isinstance(key, PathTrie) for key in shared._caches) == 2


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
