import ast
import functools
import random
import time
from collections import Counter, defaultdict, deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mscgossip import constructions, tl
from mscgossip.cfm import (
    attach_annotation,
    find_accepting_run,
    validate_run,
)
from mscgossip.constructions import (
    _BOT,
    _NO_MAXIMUM,
    _TOP,
    _gossip_plan,
    _mask,
    _mirror_symbols,
    _preorder_plan,
    _shape_of,
    _star_app,
    _star_lift,
    _theta_rule,
    _trie_pass,
    FOUR_COLORS,
    FaCore,
    FirstCore,
    FixCore,
    LastCore,
    PathTrie,
    PreorderCore,
    ReplayError,
    StepCtx,
    build_fa_label_cfm,
    build_first_label_cfm,
    build_fixpoint_cfm,
    build_gossip_cfm,
    build_last_label_cfm,
    build_preorder_cfm,
    canonical_coloring,
    closure_with_star,
    fa_target,
    fa_value,
    first_theta,
    first_value,
    fixpoint_bits,
    gossip_component_value,
    gossip_first_wrong,
    last_theta,
    last_value,
    oracle_gossip_annotation,
    preorder_bits,
    preorder_canonical_states,
    preorder_combine,
    preorder_rows,
    product_moves,
    reachable_state_report,
    replay,
    trie_maps,
)
from mscgossip.corpus import enumerate_mscs, random_corpus, random_msc
from mscgossip.msc import (
    BOTTOM,
    TOP,
    ExtendedMsc,
    Msc,
    SystemSignature,
    causal_leq,
    linearize,
    mirror_msc,
)
from mscgossip.paths import (
    EPS,
    PLUS,
    STAR,
    Msg,
    PathError,
    PathExpr,
    f_pair,
    first,
    gossip_paths,
    gossip_paths_between,
    last,
    parse_path,
    plus_prepend,
    preorder_at,
    star_append,
    star_prepend,
)
from mscgossip.tl import ABCD, _since_plan, compile_tl, parse_tl, since_path_sets
from figures import (
    SIG3,
    fig_base,
    fig_flipped,
    links_corpus,
    oracle_rows,
    own_letters,
    reference_fa_step,
    reference_fix_step,
    reference_gossip_readout,
    reference_kind_peer,
    reference_links,
    reference_pass_layout,
    switch_rule_steps,
    switch_rule_tries,
)

PI = parse_path("msg(p,q) ->*", SIG3)
PI2 = parse_path("msg(p,r) ->* msg(r,q) ->*", SIG3)

SIG2 = SystemSignature(("p", "q"), ("a", "b"))
CORPUS3 = random_corpus(SIG3, count=25, seed=23)
CORPUS2 = random_corpus(SIG2, count=15, seed=5, max_events_per_proc=3)

PATH_SHAPES = [
    EPS,
    STAR,
    PLUS,
    PI,
    PI2,
    parse_path("[a] ->*", SIG3),
    parse_path("-> [b] msg(p,q)", SIG3),
    parse_path("->* msg(q,r) [a]", SIG3),
]


def encode(m, annot):
    return attach_annotation(ExtendedMsc(m, annot))


# -- direct passes against the relational oracle -------------------------------


def test_last_value_matches_oracle():
    checked = 0
    for m in CORPUS3[:12]:
        labels = dict(m.label)
        for pi in PATH_SHAPES:
            vals = last_value(m, pi, labels)
            for e in m.events:
                g = last(m, pi, e)
                want = BOTTOM if g is BOTTOM else m.label[g]
                assert vals[e] == want
                checked += 1
            # entry i of θ(e) is the value of the prefix of length i
            th = last_theta(m, pi, labels)
            for i in range(len(pi) + 1):
                prefix = PathExpr(pi.symbols[:i])
                for e in m.events:
                    g = last(m, prefix, e)
                    assert th[e][i] == (BOTTOM if g is BOTTOM else m.label[g])
    assert checked > 300


def test_first_value_matches_oracle():
    checked = 0
    for m in CORPUS3[:12]:
        labels = dict(m.label)
        for pi in PATH_SHAPES:
            vals = first_value(m, pi, labels)
            for e in m.events:
                g = first(m, pi, e)
                want = TOP if g is TOP else m.label[g]
                assert vals[e] == want
                checked += 1
            # entry j of θ(e) is the value of the suffix of length j
            th = first_theta(m, pi, labels)
            for j in range(len(pi) + 1):
                suffix = PathExpr(pi.symbols[len(pi) - j :])
                for e in m.events:
                    g = first(m, suffix, e)
                    assert th[e][j] == (TOP if g is TOP else m.label[g])
    assert checked > 300


def test_fa_value_matches_oracle():
    star_pi2 = star_prepend(PI2)
    plus_pi = plus_prepend(PI)
    combos = [(PI, star_pi2), (PI2, plus_pi), (PLUS, STAR), (EPS, EPS)]
    for m in CORPUS3[:10]:
        labels = dict(m.label)
        for pi, pi2 in combos:
            vals = fa_value(m, pi, pi2, labels)
            for e in m.events:
                g = f_pair(m, pi, pi2, e)
                want = g if g in (BOTTOM, TOP) else m.label[g]
                assert vals[e] == want


def test_fixpoint_bits_match_oracle():
    star_pi2 = star_prepend(PI2)
    for m in CORPUS3[:10]:
        bits = fixpoint_bits(m, PI, star_pi2)
        targets = fa_target(m, PI, star_pi2)
        for e in m.events:
            assert bits[e] == (f_pair(m, PI, star_pi2, e) == e)
            assert targets[e] == f_pair(m, PI, star_pi2, e)


def test_preorder_bottom_bits_match_oracle():
    # the bit [last_a(f) = ⊥] that preorder_rows reads off its last maps, at
    # every event: each one is a q-event for its own process q
    checked = 0
    for m in CORPUS3[:10]:
        for pi in PATH_SHAPES:
            clos, trie, nodes = _preorder_plan((pi,))
            maps = trie_maps(m, trie)
            for q in SIG3.processes:
                for f in m.events_of(q):
                    at = [maps[m.index[f]][n] for n in nodes]
                    assert (at[clos.index(pi)] == _BOT) == (last(m, pi, f) is BOTTOM)
                    checked += 1
    assert checked == len(PATH_SHAPES) * sum(len(m.events) for m in CORPUS3[:10])


def _assert_preorder_matches_oracle(m, q, paths):
    """The preorder machine's rows and preorder_bits' pairs among the given
    paths against preorder_at, at every q-event."""
    ann = build_preorder_cfm("p", q, paths).annotate(m)
    bits = preorder_bits(m, q, paths)
    for e in m.events_of(q):
        assert ann[e] == oracle_rows(m, paths, e), (q, paths, e)
        po = preorder_at(m, paths, e)
        assert {(a, b) for a, b in bits[e] if a in paths and b in paths} == po.leq
    return len(m.events_of(q))


def test_preorder_bits_match_oracle():
    checked = 0
    for m in CORPUS3[:8]:
        # all paths in one set must share the source process (PLUS is q -> q)
        for paths in [(PI, PI2), (PLUS,), (PI,), (PI2,)]:
            checked += _assert_preorder_matches_oracle(m, "q", paths)
    assert checked > 80


def test_preorder_bits_all_source_target_pairs():
    m = fig_base()
    from mscgossip.paths import gossip_paths_between

    for src in SIG3.processes:
        for tgt in SIG3.processes:
            _assert_preorder_matches_oracle(m, tgt, gossip_paths_between(SIG3, src, tgt))


def _assert_rows_match_switch_rules(m, q, paths):
    assert preorder_rows(m, q, paths) == switch_rule_steps(m, q, paths), (q, paths)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), max_events=st.integers(0, 5))
def test_preorder_rows_match_the_switch_rules(k, seed, max_events):
    # ⪯ by its definition against the three switch rules along ⊏, over the
    # full closure of every gossip family
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events)
    for tgt in sig.processes:
        for src in sig.processes:
            _assert_rows_match_switch_rules(m, tgt, gossip_paths_between(sig, src, tgt))


def test_preorder_rows_match_the_switch_rules_on_fixed_sets():
    # the gossip families at k=5, n≈50, every since path set over ABCD and
    # the path sets of the preorder machine's tests
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, 6)), ("a", "b"))
    rng = random.Random(50)
    m = next(
        m
        for m in iter(lambda: random_msc(sig, rng, max_events_per_proc=13), None)
        if abs(len(m.events) - 50) <= 5
    )
    for tgt in sig.processes:
        for src in sig.processes:
            _assert_rows_match_switch_rules(m, tgt, gossip_paths_between(sig, src, tgt))
    abcd = SystemSignature(("p", "q"), ABCD)
    for m in random_corpus(abcd, count=10, seed=9, max_events_per_proc=3):
        for tgt in abcd.processes:
            for src in abcd.processes:
                lf, rt = since_path_sets(abcd, src, tgt)
                _assert_rows_match_switch_rules(m, tgt, tuple(dict.fromkeys(lf + rt)))
    sets3 = [(PI, PI2), (PLUS, STAR), (parse_path("->"), STAR), *((pi,) for pi in PATH_SHAPES)]
    for m in [fig_base(), fig_flipped(), *CORPUS3[:8]]:
        for q in SIG3.processes:
            for paths in sets3:
                _assert_rows_match_switch_rules(m, q, paths)
    for m in CORPUS2:
        for text in ("->* msg(p,q) ->*", "->* msg(q,p) ->*", "->+"):
            _assert_rows_match_switch_rules(m, "q", (parse_path(text, SIG2),))


def test_preorder_decide_passes_one_forward_trie():
    # decide reads ⪯ off last events on one last-trie: no mirror trie of
    # the switch rules is built or passed
    m = fig_flipped()
    mach = build_preorder_cfm("p", "q", (PI, PI2))
    assert mach.decide(ExtendedMsc(m, mach.annotate(fig_flipped())))
    tries = [key for key in m._caches if isinstance(key, PathTrie)]
    assert len(tries) == 1 and not tries[0].mirror


# -- last-label machine --------------------------------------------------------


def test_last_machine_fixture_value():
    # the most recent msg(p,q)->* predecessor of f5 is e4
    m = fig_base()
    mach = build_last_label_cfm(SIG3.alphabet, PI)
    ann = mach.annotate(m, dict(m.label))
    assert ann["f5"] == (m.label["f5"], m.label["e4"])
    assert mach.decide(ExtendedMsc(m, ann))


def test_last_machine_eps_is_identity():
    mach = build_last_label_cfm(SIG3.alphabet, EPS)
    for m in CORPUS3[:5]:
        ann = mach.annotate(m, dict(m.label))
        assert all(ann[e] == (m.label[e], m.label[e]) for e in m.events)
        assert mach.decide(ExtendedMsc(m, ann))


def test_last_machine_rejects_mutation():
    m = fig_base()
    mach = build_last_label_cfm(SIG3.alphabet, PI)
    ann = mach.annotate(m, dict(m.label))
    bad = dict(ann)
    bad["f5"] = (ann["f5"][0], "d")
    assert not mach.decide(ExtendedMsc(m, bad))
    assert find_accepting_run(mach, encode(m, bad)) is None


def test_last_machine_theta_excludes_bottom():
    with pytest.raises(ValueError):
        build_last_label_cfm(("a", BOTTOM), PI)


# -- first-label machine -------------------------------------------------------


def test_first_machine_fixture_value():
    m = fig_base()
    pi = parse_path("->* msg(p,r)", SIG3)
    mach = build_first_label_cfm(SIG3.alphabet, pi)
    ann = mach.annotate(m, dict(m.label))
    assert first(m, pi, "e2") == "g2"
    assert ann["e2"] == (m.label["e2"], m.label["g2"])
    assert mach.decide(ExtendedMsc(m, ann))


def test_first_machine_eps_and_top():
    mach = build_first_label_cfm(("a", "b"), EPS)
    step = build_first_label_cfm(("a", "b"), parse_path("->"))
    for m in CORPUS2[:5]:
        ann = mach.annotate(m, dict(m.label))
        assert all(ann[e] == (m.label[e], m.label[e]) for e in m.events)
        ann2 = step.annotate(m, dict(m.label))
        for p in m.signature.processes:
            es = m.events_of(p)
            if es:
                # the last event on a process has no ⊏-successor
                assert ann2[es[-1]][1] is TOP
        assert step.decide(ExtendedMsc(m, ann2))


def test_first_machine_theta_excludes_top():
    with pytest.raises(ValueError):
        build_first_label_cfm(("a", TOP), EPS)


# -- fa machine ----------------------------------------------------------------


def test_fa_machine_fixture_fixpoint():
    # f3 is its own image under the star-closed pair of comparison paths
    m = fig_flipped()
    star_pi2 = star_prepend(PI2)
    assert fa_target(m, PI, star_pi2)["f3"] == "f3"
    mach = build_fa_label_cfm(("c1", "c2", "z1", "z2"), "p", "q", PI, star_pi2)
    xi1 = {e: "c1" if e == "f3" else "z1" for e in m.events}
    ann = mach.annotate(m, xi1)
    assert ann["f3"] == ("c1", "c1")
    assert mach.decide(ExtendedMsc(m, ann))


def test_fa_machine_eps_identity_and_mutation():
    mach = build_fa_label_cfm(("a", "b"), "q", "q", EPS, EPS)
    for m in CORPUS2[:5]:
        ann = mach.annotate(m, dict(m.label))
        assert all(ann[e] == (m.label[e], m.label[e]) for e in m.events)
        assert mach.decide(ExtendedMsc(m, ann))
        qs = m.events_of("q")
        if qs:
            bad = dict(ann)
            e = qs[0]
            bad[e] = (ann[e][0], BOTTOM)
            assert not mach.decide(ExtendedMsc(m, bad))


def test_fa_machine_argument_checks():
    with pytest.raises(ValueError):
        build_fa_label_cfm(("a", TOP), "p", "q", PI, PI2)
    with pytest.raises(PathError):
        # PI ends on q but the second path targets r: no common pair
        build_fa_label_cfm(
            ("x",), "p", "q", PI, parse_path("msg(p,r) ->*", SIG3), sig=SIG3
        )


# -- fixpoint machine ----------------------------------------------------------


def test_fixpoint_machine_fixture_bits():
    m = fig_flipped()
    mach = build_fixpoint_cfm("p", "q", PI, star_prepend(PI2))
    ann = mach.annotate(m)
    assert [ann[f"f{i}"] for i in range(4)] == [0, 0, 0, 1]
    assert mach.decide(ExtendedMsc(m, ann))


def test_fixpoint_machine_rejects_all_zero_when_fixpoint_exists():
    m = fig_flipped()
    mach = build_fixpoint_cfm("p", "q", PI, star_prepend(PI2))
    zeros = {e: 0 for e in m.events}
    assert not mach.decide(ExtendedMsc(m, zeros))


def test_fixpoint_memos_of_two_machines_do_not_collide():
    # each machine memoises its annotation on the MSC under itself
    pairs = [(PI, star_prepend(PI2)), (PI2, plus_prepend(PI))]
    for order in (pairs, pairs[::-1]):
        m = fig_flipped()
        machines = [(build_fixpoint_cfm("p", "q", pi, pi2), pi, pi2) for pi, pi2 in order]
        for _ in range(2):  # computed, then read from the memo
            for mach, pi, pi2 in machines:
                ann = mach.annotate(m)
                for e in m.events_of("q"):
                    assert ann[e] == (1 if f_pair(m, pi, pi2, e) == e else 0), (pi, e)


def test_fixpoint_machine_empty_target_process():
    mach = build_fixpoint_cfm("p", "q", PLUS, STAR)
    m = Msc(SIG2, [("e0", "p", "a"), ("e1", "p", "b")], [])
    ann = mach.annotate(m)
    assert mach.decide(ExtendedMsc(m, ann))
    assert find_accepting_run(mach, encode(m, ann)) is not None


# -- preorder machine ----------------------------------------------------------


def test_preorder_machine_fixture_row():
    # strict π' ≺ π at f0, f1, f2, f6; π ⪯ π' at f3, f4, f5, f7
    # (row 0 is π, row 1 is π'; bit j of row i says π_i ⪯ π_j)
    m = fig_flipped()
    mach = build_preorder_cfm("p", "q", (PI, PI2))
    ann = mach.annotate(m)
    strict = {"f0", "f1", "f2", "f6"}
    for i in range(8):
        e = f"f{i}"
        if e in strict:
            assert ann[e][1] & 1 and not ann[e][0] & 2
        else:
            assert ann[e][0] & 2
    assert mach.decide(ExtendedMsc(m, ann))


def test_preorder_machine_rejects_flipped_entry():
    m = fig_flipped()
    mach = build_preorder_cfm("p", "q", (PI, PI2))
    ann = mach.annotate(m)
    bad = dict(ann)
    bad["f3"] = (0b01, 0b11)  # claim π' ≺ π at f3
    assert not mach.decide(ExtendedMsc(m, bad))


def test_preorder_singleton_is_constant_reflexive():
    mach = build_preorder_cfm("q", "q", (PLUS,))
    want = (1,)
    for m in CORPUS2[:6]:
        ann = mach.annotate(m)
        assert all(ann[e] == want for e in m.events_of("q"))
        assert mach.decide(ExtendedMsc(m, ann))


def test_preorder_mixed_comp_pairs_rejected():
    with pytest.raises(PathError):
        build_preorder_cfm("p", "q", (PI, parse_path("msg(p,r) ->*", SIG3)), sig=SIG3)
    # a path that ends on q but starts on r
    with pytest.raises(PathError, match=r"msg\(r,q\)"):
        build_preorder_cfm("p", "q", (PI, parse_path("msg(r,q) ->*", SIG3)), sig=SIG3)


def test_preorder_core_is_built_only_for_a_search(monkeypatch):
    built = []

    class CountingCore(PreorderCore):
        def __init__(self, q, paths):
            built.append(q)
            super().__init__(q, paths)

    monkeypatch.setattr(constructions, "PreorderCore", CountingCore)
    mach = build_preorder_cfm("p", "q", (parse_path("->* msg(p,q) ->*", SIG2),))
    m = Msc(SIG2, [("e0", "p", "a"), ("f0", "q", "b"), ("f1", "q", "a")], [("e0", "f0")])
    ann = mach.annotate(m)
    assert mach.decide(ExtendedMsc(m, ann))
    assert built == []
    assert find_accepting_run(mach, encode(m, ann)) is not None
    assert find_accepting_run(mach, encode(m, ann)) is not None
    assert built == ["q"]


def test_fixpoint_and_preorder_decide_check_q_events_only():
    # junk off q changes no verdict; a wrong value on a q-event is rejected
    m = fig_flipped()
    for mach, wrong in (
        (build_fixpoint_cfm("p", "q", PI, star_prepend(PI2)), lambda v: 1 - v),
        (build_preorder_cfm("p", "q", (PI, PI2)), lambda v: (0,) * len(v)),
    ):
        ann = mach.annotate(m)
        junk = {e: v if m.loc[e] == "q" else "junk" for e, v in ann.items()}
        assert mach.decide(ExtendedMsc(m, junk))
        for e in ("f0", "f3"):
            for base in (ann, junk):
                assert not mach.decide(ExtendedMsc(m, {**base, e: wrong(ann[e])}))


def test_closure_lists_the_given_paths_first():
    # the preorder machine's annotation is the rows of the first d paths
    step = parse_path("->")
    for paths in [(step, STAR, step), (PI2, EPS, PI), tuple(PATH_SHAPES), (PLUS, step)]:
        given = tuple(dict.fromkeys(paths))
        clos = closure_with_star(paths)
        assert clos[: len(given)] == given
        assert set(clos) == set(given) | {star_append(pi) for pi in given}
        assert len(clos) == len(set(clos))


def test_closure_identifies_double_star():
    step = parse_path("->")
    clos = closure_with_star((step, STAR))
    assert len(clos) == 3  # ->, -> ->*, ->* (->* ->* folds into ->*)
    assert closure_with_star((PI,)) == (PI,)  # already ends in ->*
    assert star_prepend(STAR) == STAR


def _reference_combine(star_app, prev, bot, star_bits, plus_bits) -> frozenset:
    """The ⪯ recurrence on closure index pairs, what preorder_combine's rows
    must give: (i, j) when π_i ⪯ π_j.  bot[i] is [last_{π_i}(f) = ⊥] and
    star_bits[i*c + j] (plus_bits[i*c + j]) says f is a f^{π_i,→*π_j}
    (f^{π_i,→+π_j}) fixpoint."""
    c = len(star_app)
    pairs = []
    for i in range(c):
        for j in range(c):
            if prev is None or (star_app[i], star_app[j]) not in prev:
                holds = bot[i] or star_bits[i * c + j]
            else:
                holds = not plus_bits[j * c + i] and (bot[i] or not bot[j])
            if holds:
                pairs.append((i, j))
    return frozenset(pairs)


def _reference_component_value(members, pre_pairs, values):
    """The first member every member is ⪯ to, on closure index pairs."""
    for k, j in enumerate(members):
        if all((other, j) in pre_pairs for other in members):
            return None if values[k] is BOTTOM else values[k]
    return _NO_MAXIMUM


def _pairs(rows) -> frozenset:
    return frozenset((i, j) for i, row in enumerate(rows) for j in range(len(rows)) if row >> j & 1)


@st.composite
def _rows(draw, c):
    return tuple(draw(st.integers(0, (1 << c) - 1)) for _ in range(c))


@st.composite
def _recurrence_inputs(draw):
    c = draw(st.integers(1, 6))
    # an idempotent star_app: the →*-closed paths map to themselves
    closed = sorted(draw(st.sets(st.integers(0, c - 1), min_size=1)))
    star_app = tuple(i if i in closed else draw(st.sampled_from(closed)) for i in range(c))
    bits = st.lists(st.booleans(), min_size=c * c, max_size=c * c)
    return (
        star_app,
        draw(st.none() | _rows(c)),
        draw(st.lists(st.booleans(), min_size=c, max_size=c)),
        draw(bits),
        draw(bits),
    )


@settings(max_examples=200, deadline=None)
@given(_recurrence_inputs())
def test_preorder_combine_rows_match_pair_reference(args):
    star_app, prev, bot, star_bits, plus_bits = args
    c = len(star_app)
    rows = preorder_combine(
        _star_lift(star_app),
        prev,
        _mask(bot),
        [_mask(star_bits[i * c : i * c + c]) for i in range(c)],
        [_mask(plus_bits[j * c + i] for j in range(c)) for i in range(c)],
    )
    prev_pairs = None if prev is None else _pairs(prev)
    assert _pairs(rows) == _reference_combine(star_app, prev_pairs, bot, star_bits, plus_bits)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda c: st.tuples(
    _rows(c),
    st.lists(st.integers(0, c - 1), unique=True),
    st.lists(st.sampled_from(("a", "b", BOTTOM)), min_size=c, max_size=c),
)))
def test_gossip_component_value_matches_pair_reference(args):
    rows, members, values = args
    want = _reference_component_value(members, _pairs(rows), values)
    assert gossip_component_value(members, rows, values) == want


# -- transition-relation route (run search) ------------------------------------


def _mutants(rng, ann, domain):
    e = rng.choice(sorted(ann))
    x1, x2 = ann[e]
    alts = [v for v in domain if v != x2]
    bad = dict(ann)
    bad[e] = (x1, rng.choice(alts))
    return bad


def test_last_machine_search_route():
    rng = random.Random(0)
    theta = ("x", "y")
    mach = build_last_label_cfm(theta, PLUS)
    for m in CORPUS2[:6]:
        xi1 = {e: rng.choice(theta) for e in m.events}
        ann = mach.annotate(m, xi1)
        run = find_accepting_run(mach, encode(m, ann))
        assert run is not None
        assert validate_run(mach.with_signature(encode(m, ann).signature),
                            encode(m, ann), run) == []
        if m.events:
            bad = _mutants(rng, ann, theta + (BOTTOM,))
            assert find_accepting_run(mach, encode(m, bad)) is None


def test_first_machine_search_route():
    rng = random.Random(1)
    theta = ("x", "y")
    mach = build_first_label_cfm(theta, parse_path("-> ->*"))
    for m in CORPUS2[:6]:
        xi1 = {e: rng.choice(theta) for e in m.events}
        ann = mach.annotate(m, xi1)
        assert find_accepting_run(mach, encode(m, ann)) is not None
        if m.events:
            bad = _mutants(rng, ann, theta + (TOP,))
            assert find_accepting_run(mach, encode(m, bad)) is None


@pytest.mark.parametrize(
    "text", ["->* msg(p,q) ->*", "msg(q,p) [a] ->*", "[b] -> msg(p,q)"]
)
def test_first_machine_search_route_every_head(text):
    # msg in both directions and a label test, beside the ⊏ and →* heads
    rng = random.Random(4)
    theta = ("x", "y")
    pi = parse_path(text, SIG2)
    mach = build_first_label_cfm(theta, pi)
    for m in CORPUS2[:6]:
        xi1 = {e: rng.choice(theta) for e in m.events}
        ann = mach.annotate(m, xi1)
        for e in m.events:
            g = first(m, pi, e)
            assert ann[e] == (xi1[e], TOP if g is TOP else xi1[g])
        assert find_accepting_run(mach, encode(m, ann)) is not None
        if m.events:
            bad = _mutants(rng, ann, theta + (TOP,))
            assert find_accepting_run(mach, encode(m, bad)) is None


def test_fa_machine_search_route():
    rng = random.Random(2)
    theta = ("x", "y")
    mach = build_fa_label_cfm(theta, "p", "q", PLUS, STAR)
    for m in CORPUS2[:5]:
        xi1 = {e: rng.choice(theta) for e in m.events}
        ann = mach.annotate(m, xi1)
        assert find_accepting_run(mach, encode(m, ann)) is not None
        if m.events_of("q"):
            e = rng.choice(m.events_of("q"))
            bad = dict(ann)
            alts = [v for v in theta + (BOTTOM, TOP) if v != ann[e][1]]
            bad[e] = (ann[e][0], rng.choice(alts))
            assert find_accepting_run(mach, encode(m, bad)) is None


def test_fixpoint_machine_search_route():
    rng = random.Random(3)
    mach = build_fixpoint_cfm("p", "q", PLUS, STAR)
    for m in CORPUS2[:5]:
        ann = mach.annotate(m)
        assert find_accepting_run(mach, encode(m, ann)) is not None
        qs = m.events_of("q")
        if qs:
            e = rng.choice(qs)
            bad = dict(ann)
            bad[e] = 1 - ann[e]
            assert find_accepting_run(mach, encode(m, bad)) is None


def test_preorder_machine_search_route_local():
    # the composite product explodes the search beyond two events, so the
    # full-relation cross-check runs on a two-event single-process MSC;
    # larger instances are replayed along their canonical runs below
    mach = build_preorder_cfm("q", "q", (PLUS,))
    m = Msc(SIG2, [("f0", "q", "a"), ("f1", "q", "b")], [])
    ann = mach.annotate(m)
    assert find_accepting_run(mach, encode(m, ann)) is not None
    bad = dict(ann)
    bad["f1"] = (0,)
    assert find_accepting_run(mach, encode(m, bad)) is None


def test_preorder_machine_search_routes_a_payload():
    # the composite relation across a message: every component's payload
    # leaves with s(p) and is read at r(q)
    pi = parse_path("->* msg(p,q) ->*", SIG2)
    mach = build_preorder_cfm("p", "q", (pi,))
    m = Msc(SIG2, [("s", "p", "a"), ("r", "q", "b")], [("s", "r")])
    ann = mach.annotate(m)
    assert ann["r"] == (1,)
    run = find_accepting_run(mach, encode(m, ann))
    assert run is not None
    sent = run.assignment["s"].msg
    assert sent is not None and run.assignment["r"].msg == sent
    bad = dict(ann)
    bad["r"] = (0,)
    assert find_accepting_run(mach, encode(m, bad)) is None


def replayed(mach, m):
    """replay on m's correct annotation, checked to return the canonical run."""
    states = replay(mach, ExtendedMsc(m, mach.annotate(m)))
    canon = mach.canonical_states(m)
    for p in m.signature.processes:
        assert states[p] == [*mach._starts(p), *(canon[e] for e in m.events_of(p))]
    return states


@pytest.mark.parametrize("text", ["->* msg(p,q) ->*", "->* msg(q,p) ->*", "->+"])
def test_preorder_core_threads_its_canonical_run(text):
    # the composite step, payloads included, reaches each event's canonical
    # state from the canonical state before it
    mach = build_preorder_cfm("p", "q", (parse_path(text, SIG2),))
    for m in CORPUS2[:5]:
        replayed(mach, m)


def test_preorder_rows_of_a_repeated_path():
    # (π, π', π) is annotated over its two distinct paths, also when the
    # closure adds a third (msg(p,q) →*)
    msg = parse_path("msg(p,q)", SIG3)
    for paths in [(PI, PI2, PI), (msg, PI2, msg)]:
        mach = build_preorder_cfm("p", "q", paths)
        for m in [fig_flipped(), *CORPUS3[:6]]:
            ann = mach.annotate(m)
            for e in m.events_of("q"):
                assert len(ann[e]) == 2 and ann[e] == oracle_rows(m, paths, e)
            assert mach.decide(ExtendedMsc(m, ann))
        replayed(mach, fig_flipped())


def test_preorder_rows_of_a_path_not_ending_in_star():
    # the closure adds msg(p,q) →* (PI), so _star_lift moves bits and the
    # annotation drops a closure row and column
    paths = (parse_path("msg(p,q)", SIG3), PI2)
    assert closure_with_star(paths)[2:] == (PI,)
    assert _star_app(closure_with_star(paths)) == (2, 1, 2)
    mach = build_preorder_cfm("p", "q", paths)
    for m in [fig_flipped(), *CORPUS3[:6]]:
        ann = mach.annotate(m)
        for e in m.events_of("q"):
            assert ann[e] == oracle_rows(m, paths, e)
        assert mach.decide(ExtendedMsc(m, ann))
    replayed(mach, fig_flipped())


def test_preorder_rejects_a_flipped_off_diagonal_bit():
    m = fig_flipped()
    mach = build_preorder_cfm("p", "q", (PI, PI2))
    ann = mach.annotate(m)
    for e in m.events_of("q"):
        assert ann[e] == oracle_rows(m, (PI, PI2), e)
        assert not mach.decide(ExtendedMsc(m, {**ann, e: (ann[e][0] ^ 2, ann[e][1])}))
        assert not mach.decide(ExtendedMsc(m, {**ann, e: (ann[e][0], ann[e][1] ^ 1)}))
    # the search, on the smallest set whose relation it can exhaust: ε and
    # →* on q, so that last_ε(f) = last_→*(f) = f
    mach = build_preorder_cfm("q", "q", (EPS, STAR))
    for n in (1, 2):
        m = Msc(SIG2, [(f"f{i}", "q", "a") for i in range(n)], [])
        ann = mach.annotate(m)
        assert ann["f0"] == oracle_rows(m, (EPS, STAR), "f0") == (0b11, 0b11)
        assert find_accepting_run(mach, encode(m, ann)) is not None
        bad = {**ann, "f0": (0b01, 0b11)}
        assert not mach.decide(ExtendedMsc(m, bad))
        assert find_accepting_run(mach, encode(m, bad)) is None


def test_preorder_replay_threads_canonical_runs():
    mach = build_preorder_cfm("p", "q", (PI, PI2))
    for m in [fig_flipped(), *CORPUS3[:2]]:
        replayed(mach, m)


# -- gossip machine ------------------------------------------------------------


def test_gossip_oracle_annotation_fixture():
    m = fig_flipped()
    ext = oracle_gossip_annotation(m)
    # e5 is the latest p-event below f5 (via g4, g5, f4)
    assert ext.annot["f5"][0] == m.label["e5"] == "a"
    assert ext.annot["e0"] == (None, None, None)
    # q announces exactly the latest p-label at every f_i
    for i in range(8):
        assert m.label[f"f{i}"] == ext.annot[f"f{i}"][0]


def test_gossip_machine_accepts_fixture():
    mach = build_gossip_cfm(SIG3)
    m = fig_flipped()
    ext = oracle_gossip_annotation(m)
    assert mach.annotate(m) == ext.annot
    assert mach.decide(ext)


def test_gossip_machine_single_event_all_bottom():
    mach = build_gossip_cfm(SIG3)
    m = Msc(SIG3, [("e", "p", "a")], [])
    ext = ExtendedMsc(m, {"e": (None, None, None)})
    assert mach.decide(ext)


def test_gossip_machine_rejects_stale_claim():
    # claiming the directly-received label at f2/f5 instead of the newest one
    m = fig_flipped()
    ext = oracle_gossip_annotation(m)
    bad = dict(ext.annot)
    for e in ("f2", "f5"):
        vals = list(bad[e])
        assert vals[0] == "a"
        vals[0] = "b"
        bad[e] = tuple(vals)
    assert not build_gossip_cfm(SIG3).decide(ExtendedMsc(m, bad))


def test_gossip_matches_oracle_on_corpus():
    mach = build_gossip_cfm(SIG3)
    rng = random.Random(11)
    for m in CORPUS3[:15]:
        ext = oracle_gossip_annotation(m)
        assert mach.decide(ext)
        if m.events:
            e = rng.choice(m.events)
            i = rng.randrange(len(SIG3.processes))
            vals = list(ext.annot[e])
            alts = [v for v in SIG3.alphabet + (None,) if v != vals[i]]
            vals[i] = rng.choice(alts)
            bad = dict(ext.annot)
            bad[e] = tuple(vals)
            assert not mach.decide(ExtendedMsc(m, bad))


@pytest.mark.parametrize("k", [4, 5])
def test_gossip_decide_rejects_every_single_component_flip(k):
    # from k = 4 on a family has several members (five at k = 4), so each
    # source's component must be chosen from its own rows: every flip of one
    # (event, component) to another value is rejected, the oracle accepted
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, k + 1)), ("a", "b"))
    mach = build_gossip_cfm(sig)
    m = random_msc(sig, random.Random(k), max_events_per_proc=4)
    ext = oracle_gossip_annotation(m)
    assert mach.decide(ext)
    flips = 0
    for e in m.events:
        claimed = ext.annot[e]
        for i, v in enumerate(claimed):
            for w in sig.alphabet + (None,):
                if w != v:
                    flipped = claimed[:i] + (w,) + claimed[i + 1 :]
                    assert not mach.decide(ext.with_annot(e, flipped)), (e, i, w)
                    flips += 1
    assert flips == 2 * k * len(m.events) and len(m.events) >= 10


def test_gossip_replay_threads_canonical_runs():
    replayed(build_gossip_cfm(SIG3), fig_base())
    for k, seed in ((2, 31), (3, 37)):
        sig = SystemSignature(tuple(f"p{i}" for i in range(1, k + 1)), ("a", "b"))
        mach, rng = build_gossip_cfm(sig), random.Random(seed)
        for _ in range(10):
            replayed(mach, random_msc(sig, rng, 3))


def test_gossip_replay_names_a_wrong_component():
    # the composite step has no move to f5's canonical state once f5 claims
    # b for its latest p-event, whose label is a
    m = fig_flipped()
    ext = oracle_gossip_annotation(m)
    assert ext.annot["f5"][0] == "a"
    with pytest.raises(ReplayError) as err:
        replay(build_gossip_cfm(SIG3), ext.with_annot("f5", ("b",) + ext.annot["f5"][1:]))
    assert err.value.event == "f5" and "'f5'" in str(err.value)


def test_gossip_replay_at_k4():
    # the composite relation at k = 4, on an MSC the search cannot finish:
    # the oracle annotation replays to the final check, and a flipped
    # component stops the replay at its event
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, 5)), ("a", "b"))
    rng = random.Random(4)
    m = next(m for m in iter(lambda: random_msc(sig, rng, 5), None) if len(m.events) >= 15)
    mach = build_gossip_cfm(sig)
    ext = oracle_gossip_annotation(m)
    replay(mach, ext)
    e = max(m.events, key=lambda e: sum(v is not None for v in ext.annot[e]))
    i = next(i for i, v in enumerate(ext.annot[e]) if v is not None)
    flipped = list(ext.annot[e])
    flipped[i] = "b" if flipped[i] == "a" else "a"
    with pytest.raises(ReplayError) as err:
        replay(mach, ext.with_annot(e, tuple(flipped)))
    assert err.value.event == e


def test_gossip_replay_reads_each_receive_at_its_send(monkeypatch):
    # along linearize, a1 and a2 are both in flight on p→q while a3 is on
    # p→r, then c1 joins them on r→q; a receive that read another send's
    # payload would miss its canonical state.  Every canonical state is
    # reached, and a canonical state swapped for another of its process's
    # stops the replay at its own event
    m = Msc(SIG3, [("a1", "p", "a"), ("a2", "p", "b"), ("a3", "p", "a"), ("a4", "p", "b"),
                   ("c1", "r", "b"), ("c2", "r", "a"),
                   ("x1", "q", "a"), ("x2", "q", "b"), ("x3", "q", "d")],
            [("a1", "x1"), ("a2", "x3"), ("c1", "x2"), ("a3", "c2")])
    assert linearize(m) == ("a1", "a2", "a3", "a4", "c1", "c2", "x1", "x2", "x3")
    mach = build_gossip_cfm(SIG3)
    replayed(mach, m)
    ext = ExtendedMsc(m, mach.annotate(m))
    canon = mach.canonical_states(m)
    for e in m.events:
        for wrong in {canon[f] for f in m.events_of(m.loc[e])} - {canon[e]}:
            monkeypatch.setattr(mach, "_canonical_fn", lambda m, e=e, s=wrong: {**canon, e: s})
            with pytest.raises(ReplayError) as err:
                replay(mach, ext)
            assert err.value.event == e


def test_canonical_states_run_one_pass_per_trie(monkeypatch):
    # θ under any base is the identity-base map of its trie read through that
    # base, so the canonical run makes one pass per trie and keeps its map
    # a trie without label tests is passed no letters list
    passes = []

    def counted(m, trie, letters):
        passes.append(trie)
        assert (letters is None) is not trie.reads_letters
        return _trie_pass(m, trie, letters)

    monkeypatch.setattr(constructions, "_trie_pass", counted)
    m = random_msc(SIG3, random.Random(3), 12)
    assert len(m.events) >= 20
    build_gossip_cfm(SIG3).canonical_states(m)
    assert len(passes) == sum(isinstance(key, PathTrie) for key in m._caches)
    assert passes


def test_gossip_message_carries_label():
    mach = build_gossip_cfm(SIG2)
    m = Msc(SIG2, [("s", "p", "a"), ("r", "q", "b")], [("s", "r")])
    ext = oracle_gossip_annotation(m)
    assert ext.annot["r"] == ("a", None)
    assert mach.decide(ext)
    bad = dict(ext.annot)
    bad["r"] = ("b", None)
    assert not mach.decide(ExtendedMsc(m, bad))


def test_gossip_annotation_memo_is_per_process_order():
    # one MSC read by two machines whose process orders differ
    sig_pq = SystemSignature(("p", "q"), ("a", "b"))
    sig_qp = SystemSignature(("q", "p"), ("a", "b"))
    m = Msc(sig_pq, [("e1", "p", "a"), ("e2", "q", "b")], [("e1", "e2")])
    assert build_gossip_cfm(sig_pq).annotate(m)["e2"] == ("a", None)
    assert build_gossip_cfm(sig_qp).annotate(m)["e2"] == (None, "a")


@pytest.mark.parametrize("k", [4, 5])
def test_gossip_annotation_matches_oracle_at_large_k(k):
    # the trie route against the causal-order oracle at the sizes tier-1's
    # decide sweeps (k ≤ 3) do not reach
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, k + 1)), ("a", "b"))
    mach = build_gossip_cfm(sig)
    rng = random.Random(k)
    sizes = []
    for _ in range(3):
        m = random_msc(sig, rng, max_events_per_proc=round(50 / (0.75 * k)))
        assert mach.annotate(m) == oracle_gossip_annotation(m).annot
        sizes.append(len(m.events))
    assert min(sizes) >= 25 and sum(sizes) >= 120, sizes


def test_gossip_annotation_matches_oracle_at_k5_n250():
    # the largest cell of the baseline grid: the vector-clock oracle makes
    # the equivalence check cheap at this size
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, 6)), ("a", "b"))
    rng = random.Random(250)
    m = next(
        m
        for m in iter(lambda: random_msc(sig, rng, max_events_per_proc=67), None)
        if abs(len(m.events) - 250) <= 25
    )
    assert build_gossip_cfm(sig).annotate(m) == oracle_gossip_annotation(m).annot


def _with_idle_process(m: Msc) -> Msc:
    """m over its signature with one more process, which has no events."""
    sig = m.signature
    wider = SystemSignature((*sig.processes, "idle"), sig.alphabet)
    events = [(e, m.loc[e], m.label[e]) for e in m.events]
    return Msc(wider, events, list(m.msg))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_compiled_gossip_readout_matches_the_reference(k):
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, k + 1)), ("a", "b"))
    rng = random.Random(100 + k)
    bottoms = 0
    for max_events in (1, 3, 6, 10):
        drawn = random_msc(sig, rng, max_events)
        for m in (drawn, _with_idle_process(drawn)):
            got = build_gossip_cfm(m.signature).annotate(m)
            assert got == reference_gossip_readout(m)
            bottoms += sum(v is None for xi in got.values() for v in xi)
    assert bottoms > 0


def test_gossip_readouts_are_compiled_once_per_signature(monkeypatch):
    # a signature no other test builds, so that its programs are compiled here
    sig = SystemSignature(("p", "q", "r"), ("a", "b", "readout"))
    calls = Counter()
    compile_step = constructions._function

    def counted(source):
        step = compile_step(source)

        def program(*args):
            calls[program] += 1
            return step(*args)

        return program

    monkeypatch.setattr(constructions, "_function", counted)
    first, second = build_gossip_cfm(sig), build_gossip_cfm(sig)
    m = random_msc(sig, random.Random(5), 6)
    # each machine memoises its annotation under itself, and both read the
    # one trie map kept on m
    assert first.annotate(m) == second.annotate(m) == reference_gossip_readout(m)
    ext = oracle_gossip_annotation(m)
    assert first.decide(ext) and second.decide(ext)
    # one program per (process, shape) that m has, its read-out included,
    # shared by both machines: one call per event on the annotating pass and
    # on each decide, which keeps nothing
    shapes = {
        (m.loc[e], pred is not None, sender and m.loc[sender])
        for e, (pred, _, sender, _) in reference_links(m).items()
    }
    assert len(calls) == len(shapes) < len(m.events)
    assert sum(calls.values()) == 3 * len(m.events)


def test_gossip_decide_stops_at_the_first_wrong_event(monkeypatch):
    # decide runs one event's program when the first event of linearize(m)
    # is claimed wrong, and every event's when the claim is right
    sig = SystemSignature(("p", "q", "r"), ("a", "b", "stop"))
    ran = []
    compile_step = constructions._function

    def counted(source):
        step = compile_step(source)

        def program(none, base, *rest):
            ran.append(base)  # the event's index
            return step(none, base, *rest)

        return program

    monkeypatch.setattr(constructions, "_function", counted)
    mach = build_gossip_cfm(sig)
    m = random_msc(sig, random.Random(7), 6)
    ext = oracle_gossip_annotation(m)
    assert mach.decide(ext)
    assert sorted(ran) == list(range(len(m.events))) and len(ran) > 10
    order = linearize(m)
    for e, at in ((order[0], 1), (order[-1], len(order))):
        ran.clear()
        wrong = ext.with_annot(e, ("stop",) * len(sig.processes))
        assert not mach.decide(wrong)
        assert ran == [m.index[f] for f in order[:at]]
        assert gossip_first_wrong(wrong) == (e, ext.annot[e])
    assert gossip_first_wrong(ext) is None


def test_gossip_annotate_matches_the_references_on_the_links_corpus():
    # k = 2..5, about 10, 50 and 250 events, each MSC also with its event
    # ids permuted, so that linearize's order disagrees with the id order
    for m in links_corpus():
        mach = build_gossip_cfm(m.signature)
        got = mach.annotate(m)
        assert got == reference_gossip_readout(m) == oracle_gossip_annotation(m).annot
        assert mach.decide(ExtendedMsc(m, got))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    max_events=st.integers(0, 6),
    pick=st.randoms(use_true_random=False),
)
def test_gossip_annotate_and_decide_match_the_oracle(k, seed, max_events, pick):
    # annotate gives the oracle's annotation; decide accepts it, and a claim
    # wrong at one event is rejected there, with the oracle's value
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events)
    ext = oracle_gossip_annotation(m)
    mach = build_gossip_cfm(sig)
    assert mach.annotate(m) == ext.annot == reference_gossip_readout(m)
    assert mach.decide(ext) and gossip_first_wrong(ext) is None
    if m.events:
        e, i = pick.choice(m.events), pick.randrange(k)
        w = pick.choice([v for v in ("a", "b", None) if v != ext.annot[e][i]])
        wrong = ext.with_annot(e, ext.annot[e][:i] + (w,) + ext.annot[e][i + 1 :])
        assert not mach.decide(wrong)
        assert gossip_first_wrong(wrong) == (e, ext.annot[e])


def _gossip_by_switch_rules(m, sig) -> dict:
    """The gossip annotation read off ⪯'s rows: per (src, tgt) pair, the
    component at each tgt-event is gossip_component_value over the family's
    preorder_rows, with the last-labels of its paths.  The rows are tied to
    the switch rules by test_preorder_rows_match_the_switch_rules."""
    comps = {e: [] for e in m.events}
    for tgt in sig.processes:
        for src in sig.processes:
            fam = gossip_paths_between(sig, src, tgt)
            clos = _preorder_plan(fam)[0]
            members = tuple(map(clos.index, fam))
            thetas = [last_theta(m, pi, m.label) for pi in fam]
            for f, rows in preorder_rows(m, tgt, fam).items():
                values = [th[f][-1] for th in thetas]
                comps[f].append(gossip_component_value(members, rows, values))
    return {e: tuple(c) for e, c in comps.items()}


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), max_events=st.integers(0, 5))
def test_gossip_components_match_the_preorder_switch_rules(k, seed, max_events):
    # the direct last-event recency against the switch-rule recurrence
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events)
    assert build_gossip_cfm(sig).annotate(m) == _gossip_by_switch_rules(m, sig)


def test_gossip_components_match_the_preorder_switch_rules_at_k5_n50():
    sig = SystemSignature(tuple(f"p{i}" for i in range(1, 6)), ("a", "b"))
    rng = random.Random(50)
    m = next(
        m
        for m in iter(lambda: random_msc(sig, rng, max_events_per_proc=13), None)
        if abs(len(m.events) - 50) <= 5
    )
    assert build_gossip_cfm(sig).annotate(m) == _gossip_by_switch_rules(m, sig)


def test_gossip_decide_passes_one_forward_trie(monkeypatch):
    # decide reads ⪯ off last events on one forward pass of the last-trie,
    # and keeps neither its maps nor a layout: no mirror trie of the
    # recurrence is built or passed; annotate keeps that one trie's maps
    sig = SystemSignature(("p1", "p2", "p3"), ("a", "b"))
    m = random_msc(sig, random.Random(3), 4)
    ext = oracle_gossip_annotation(m)
    walked, walk = [], constructions._trie_walk

    def recording(steps, programs, none, theta, labels=None):
        walked.append(none)
        return walk(steps, programs, none, theta, labels)

    monkeypatch.setattr(constructions, "_trie_walk", recording)
    mach = build_gossip_cfm(sig)
    kept = set(m._caches)
    assert mach.decide(ext)
    assert walked == [_BOT]
    assert set(m._caches) - kept <= {"index", "links", "order"}
    mach.annotate(m)
    tries = [key for key in m._caches if isinstance(key, PathTrie)]
    assert len(tries) == 1 and not tries[0].mirror


def _gossip_first_trie(sig) -> PathTrie:
    """A many-path mirror trie over →*π and →+π for every gossip path π, so
    that mirrored msg(p,q) programs are checked."""
    return switch_rule_tries(closure_with_star(gossip_paths(sig)))[1]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), max_events=st.integers(0, 4))
def test_gossip_trie_nodes_match_oracle(k, seed, max_events):
    # every node of the gossip last-trie, and of a first-trie over →*π and
    # →+π for every gossip path π, holds last (first) of its path at every
    # event, against the relational oracle
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events)
    for trie, oracle, none in (
        (_gossip_plan(sig)[1], last, BOTTOM),
        (_gossip_first_trie(sig), first, TOP),
    ):
        maps = trie_maps(m, trie)
        symbols = {0: ()}
        for node, head, parent in trie.edges:
            symbols[node] = symbols[parent] + (head,)
            pi = PathExpr(symbols[node])
            if trie.mirror:  # a first-trie node holds its path mirrored
                pi = PathExpr(_mirror_symbols(pi))
            for e in m.events:
                g = maps[m.index[e]][node]
                assert (none if g < 0 else m.events[g]) == oracle(m, pi, e), (pi, e)


def _reference_step(edges, none, base, pred, sender, proc, sender_proc, sigma) -> tuple:
    """θ at one event, edge by edge with _theta_rule: what a compiled step must give."""
    t = [base]
    for node, head, parent in edges:
        t.append(_theta_rule(
            head, parent, node, t[parent], none, pred, sender, proc, sender_proc, sigma
        ))
    return tuple(t)


def _reference_pass(m, trie) -> list:
    x = mirror_msc(m) if trie.mirror else m
    none = _TOP if trie.mirror else _BOT
    theta = [None] * len(m.events)
    links = reference_links(x)
    for e in linearize(x):
        pred, _, sender, _ = links[e]
        theta[m.index[e]] = _reference_step(
            trie.edges,
            none,
            m.index[e],
            None if pred is None else theta[m.index[pred]],
            None if sender is None else theta[m.index[sender]],
            x.loc[e],
            None if sender is None else x.loc[sender],
            x.label[e],
        )
    return theta


def test_pass_layout_equals_the_name_keyed_reference():
    # both directions, on MSCs whose id order agrees and disagrees with the
    # causal order; the mirror derives each ⊏-successor and receiver, and
    # each shape code reads back as the event's shape
    for m in links_corpus():
        procs = m.signature.processes
        for mirror in (False, True):
            layout = constructions._pass_layout(m, mirror)
            decoded = [(i, p, s, _shape_of(procs, k)) for i, p, s, k in layout]
            assert decoded == reference_pass_layout(m, mirror)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), max_events=st.integers(0, 5))
def test_compiled_pass_matches_theta_rule(k, seed, max_events):
    # the gossip last-trie and the many-path mirror first-trie over every
    # gossip path, whose programs are kept across examples, give the
    # edge-by-edge maps of _theta_rule in every θ entry; the gossip rows end
    # with the read-out, which the gossip tests check
    sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
    m = random_msc(sig, random.Random(seed), max_events)
    for trie in (_gossip_plan(sig)[1], _gossip_first_trie(sig)):
        nodes = len(trie.edges) + 1
        got = [row[:nodes] for row in _trie_pass(m, trie, own_letters(m))]
        assert got == _reference_pass(m, trie)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_events=st.integers(0, 5))
def test_compiled_since_pass_matches_theta_rule(seed, max_events):
    sig = SystemSignature(("p", "q"), ABCD)
    m = random_msc(sig, random.Random(seed), max_events)
    for mirror in (False, True):  # the since and the until trie
        trie, _ = _since_plan(sig, mirror)
        assert _trie_pass(m, trie, own_letters(m)) == _reference_pass(m, trie)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_events=st.integers(1, 5))
def test_last_core_steps_match_theta_rule(seed, max_events):
    # LastCore runs the compiled step with BOTTOM for none and the base
    # alphabet's values, BOTTOM among them, in place of event indices
    rng = random.Random(seed)
    m = random_msc(SIG3, rng, max_events)
    base = {e: rng.choice(("x", "y", BOTTOM)) for e in m.events}
    for pi in PATH_SHAPES:
        core = LastCore(pi)
        state, sent = {}, {}
        links = reference_links(m)
        for e in linearize(m):
            pred, _, sender, _ = links[e]
            ctx = StepCtx(m.loc[e], *reference_kind_peer(m, links, e), m.label[e])
            payload = None if sender is None else sent[sender]
            [(t, out, pay)] = core.step(
                "start" if pred is None else state[pred], ctx, base[e], payload
            )
            want = _reference_step(
                core.trie.edges,
                BOTTOM,
                base[e],
                None if pred is None else state[pred],
                payload,
                m.loc[e],
                None if sender is None else m.loc[sender],
                m.label[e],
            )
            assert t == want and out == want[-1], (pi, e)
            state[e] = t
            if pay is not None:
                sent[e] = pay


# paths over SIG3 whose θ depends on every part of an event's shape: the
# letter ([a], [b]), the sender's process (msg(p,q) against msg(r,q)), the
# process and the ⊏-predecessor
LEAK_PATHS = [
    pi.symbols
    for pi in PATH_SHAPES
    + [parse_path(t, SIG3) for t in ("msg(r,q) ->*", "->* [b] msg(q,r)", "-> [a] ->* msg(r,p)")]
]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mirror=st.booleans())
def test_compiled_programs_do_not_leak_between_mscs(seed, mirror):
    # a trie warmed on one MSC and on its mirror gives a second MSC the maps
    # of a fresh trie
    rng = random.Random(seed)
    warm_on, m = (random_msc(SIG3, rng, 4) for _ in range(2))
    warmed = PathTrie(LEAK_PATHS, mirror)
    _trie_pass(warm_on, warmed, own_letters(warm_on))
    mirrored = mirror_msc(warm_on)
    _trie_pass(mirrored, warmed, own_letters(mirrored))
    got = _trie_pass(m, warmed, own_letters(m))
    assert got == _trie_pass(m, PathTrie(LEAK_PATHS, mirror), own_letters(m))
    assert got == _reference_pass(m, warmed)
    assert warmed.reads_letters and trie_maps(m, warmed) == got  # m's own labels


def test_pass_programs_are_kept_on_the_trie_by_shape_and_letter(monkeypatch):
    # a trie with label tests keeps one table of pass programs, keyed by
    # (shape code, letter): passes over many MSCs compile each key once, in
    # either direction, and give the edge-by-edge maps, for the letters d
    # and z, which no label test names, too
    sig = SystemSignature(SIG3.processes, ("a", "b", "d", "z"))
    compiled = Counter()
    compile_step = PathTrie._compile

    def counted(self, *key):
        compiled[self, key] += 1
        return compile_step(self, *key)

    monkeypatch.setattr(PathTrie, "_compile", counted)
    for mirror in (False, True):
        trie = PathTrie(LEAK_PATHS, mirror)
        met = set()
        for m in random_corpus(sig, count=30, seed=37, max_events_per_proc=4):
            assert _trie_pass(m, trie, own_letters(m)) == _reference_pass(m, trie)
            layout = constructions._pass_layout(m, mirror)
            met |= {(k, m.label[m.events[i]]) for i, _, _, k in layout}
        assert set(trie.shape_programs(sig.processes)) == met
        assert {letter for _, letter in met} == set(sig.alphabet)
        counts = [n for (owner, _), n in compiled.items() if owner is trie]
        assert len(counts) == len(met) and set(counts) == {1}


def test_gossip_cores_are_built_only_for_a_search(monkeypatch):
    built = []

    class CountingPreorderCore(constructions.PreorderCore):
        def __init__(self, q, paths):
            built.append("preorder")
            super().__init__(q, paths)

    class CountingLastCore(constructions.LastCore):
        def __init__(self, pi):
            built.append("last")
            super().__init__(pi)

    monkeypatch.setattr(constructions, "PreorderCore", CountingPreorderCore)
    monkeypatch.setattr(constructions, "LastCore", CountingLastCore)
    mach = build_gossip_cfm(SIG3)
    m = fig_flipped()
    assert mach.decide(oracle_gossip_annotation(m))
    assert mach.annotate(m) == oracle_gossip_annotation(m).annot
    assert built == []
    mach._starts("p")
    assert built.count("preorder") == len(SIG3.processes) ** 2
    assert built.count("last") > 0
    n_built = len(built)
    mach._starts("q")
    assert len(built) == n_built  # built once per machine


def test_gossip_search_route_single_process():
    # the composite transition relation branches on every component's guesses,
    # so the genuine run search is only tractable on the smallest signature;
    # larger instances are replayed along their canonical runs
    sig1 = SystemSignature(("p",), ("a", "b"))
    mach = build_gossip_cfm(sig1)
    m = Msc(sig1, [("e", "p", "a")], [])
    ext = oracle_gossip_annotation(m)
    assert ext.annot["e"] == (None,)
    assert find_accepting_run(mach, encode(m, ext.annot)) is not None
    assert find_accepting_run(mach, encode(m, {"e": ("a",)})) is None
    # an annotation that is not one value per process has no move
    for bad in ("a", ("a", "b")):
        assert find_accepting_run(mach, encode(m, {"e": bad})) is None


# -- canonical states and reporting --------------------------------------------


def _check_coloring(m, q, pi, pi2) -> Counter:
    """Assert that fa is monotone along q where defined and that the
    canonical coloring is valid: bit-1 q-events alternate c1/c2, bit-0
    q-events are hatted and differ from a bit-0 q-target.  Counts the
    bit-0 → bit-0 edges by the target's side."""
    zeta = canonical_coloring(m, q, pi, pi2)
    bits = fixpoint_bits(m, pi, pi2)
    targets = fa_target(m, pi, pi2)
    qs = m.events_of(q)
    defined = [targets[e] for e in qs if targets[e] in m.loc]
    assert all(causal_leq(m, a, b) for a, b in zip(defined, defined[1:]))
    real = [zeta[e] for e in qs if bits[e]]
    assert all(c in ("c1", "c2") for c in real)
    assert all(a != b for a, b in zip(real, real[1:]))
    edges = Counter()
    for i, e in enumerate(qs):
        if bits[e]:
            continue
        assert zeta[e] in ("z1", "z2")
        t = targets[e]
        if t in m.loc and m.loc[t] == q and not bits[t]:
            assert zeta[e] != zeta[t]
            edges["later" if qs.index(t) > i else "earlier"] += 1
    return edges


def test_canonical_coloring_is_valid():
    edges = _check_coloring(fig_flipped(), "q", PI, star_prepend(PI2))
    # every MSC shape with k=2 and at most 6 events or k=3 and at most 5,
    # over every closure pair of every gossip family, as the PreorderCores
    # of build_gossip_cfm run them
    for k, size in ((2, 6), (3, 5)):
        sig = SystemSignature(("p", "q", "r")[:k], ("a",))
        pairs = _gossip_plan(sig)[0]
        for m in enumerate_mscs(sig, size):
            for _, q, fam in pairs:
                clos = closure_with_star(fam)
                for prepend in (star_prepend, plus_prepend):
                    for a in clos:
                        for b in clos:
                            edges += _check_coloring(m, q, a, prepend(b))
    assert edges["later"] > 0 and edges["earlier"] > 0


def test_fix_core_drives_canonical_run():
    mach = build_fixpoint_cfm("p", "q", PI, star_prepend(PI2))
    for m in [fig_flipped(), *CORPUS3[:3]]:
        replayed(mach, m)


def test_fixpoint_replay_names_a_flipped_bit():
    mach = build_fixpoint_cfm("p", "q", PI, star_prepend(PI2))
    m = fig_flipped()
    ann = mach.annotate(m)
    assert {ann[e] for e in m.events_of("q")} == {0, 1}
    for e in m.events_of("q"):
        with pytest.raises(ReplayError) as err:
            replay(mach, ExtendedMsc(m, {**ann, e: 1 - ann[e]}))
        assert err.value.event == e


def test_replay_names_the_final_check():
    # a final test that rejects the canonical run's last states stops the
    # replay after its last event
    mach = build_fixpoint_cfm("p", "q", PI, star_prepend(PI2))
    m = fig_flipped()
    replayed(mach, m)
    mach._final = lambda p, state: p != "q"
    with pytest.raises(ReplayError, match=r"^fixpoint.*: replay fails at the final check$") as err:
        replay(mach, ExtendedMsc(m, mach.annotate(m)))
    assert err.value.event is None


def test_a_label_machine_has_no_canonical_states():
    mach = build_last_label_cfm(("a", "b"), PI)
    with pytest.raises(NotImplementedError, match=r"has no canonical-state pass$"):
        mach.canonical_states(fig_flipped())


def test_annotation_machines_refuse_unpaired_labels_and_claims():
    m = fig_flipped()
    with pytest.raises(ValueError, match="^expected \\(label, annotation\\) pairs, got 'b'$"):
        find_accepting_run(build_fixpoint_cfm("p", "q", PI, star_prepend(PI2)), m)
    with pytest.raises(ValueError, match="^annotation at 'e0' is not a \\(ξ1, ξ2\\) pair$"):
        build_last_label_cfm(("a", "b"), PI).decide(ExtendedMsc(m, dict(m.label)))


def test_state_report_monotone_in_path_size():
    family = CORPUS2[:6]
    sizes = []
    for paths in [(PLUS,), (PLUS, STAR)]:
        mach = build_preorder_cfm("q", "q", paths)
        rep = reachable_state_report(mach, family)
        assert set(rep["per_process"]) == {"p", "q"}
        assert rep["total"] == sum(rep["per_process"].values())
        sizes.append(rep["total"])
    assert sizes[0] <= sizes[1]


def test_gossip_state_report_runs():
    mach = build_gossip_cfm(SIG2)
    rep = reachable_state_report(mach, CORPUS2[:3])
    assert rep["total"] >= 2


def test_reachable_state_counts_are_pinned():
    # an encoding of the preorder state that split or merged states moves these
    gossip = build_gossip_cfm(SIG3)
    assert reachable_state_report(gossip, [fig_base()])["per_process"] == {
        "p": 9, "q": 9, "r": 9
    }
    assert reachable_state_report(gossip, [fig_base(), fig_flipped()])["per_process"] == {
        "p": 9, "q": 13, "r": 9
    }
    assert reachable_state_report(build_gossip_cfm(SIG2), CORPUS2)["total"] == 62
    for paths in [(PLUS,), (PLUS, STAR)]:
        assert reachable_state_report(build_preorder_cfm("q", "q", paths), CORPUS2[:6])[
            "total"
        ] == 14


# -- the want contract -----------------------------------------------------------


def check_want(rng, step, extra=()):
    """For states sampled from the generic moves step(None), and for
    ``extra``: step(want) yields exactly the generic moves to ``want``, each
    as often.  Returns the sampled states."""
    generic = Counter(step(None))
    states = list(dict.fromkeys(mv[0] for mv in generic))
    wants = rng.sample(states, min(3, len(states)))
    for want in [*wants, *extra]:
        targeted = Counter(step(want))
        assert targeted == Counter({mv: n for mv, n in generic.items() if mv[0] == want}), want
    return wants


def sampled_steps(core_step, start, canon, m, rng):
    """Along the canonical run, with its payloads in transit, the steps
    core_step(state, ctx, message in, want) of each event from two reachable
    states: the canonical one, and that of a random move at the process's
    event before."""
    states = dict.fromkeys(m.signature.processes, (start,))
    chans, links = defaultdict(deque), reference_links(m)
    for e in linearize(m):
        p, (kind, peer) = m.loc[e], reference_kind_peer(m, links, e)
        msg_in = chans[peer, p].popleft() if kind == "recv" else None
        ctx = StepCtx(p, kind, peer, m.label[e])
        for state in states[p]:
            yield ctx, functools.partial(core_step, state, ctx, msg_in)
        moves = list(core_step(states[p][0], ctx, msg_in))
        payload = next(pay for ns, _, pay in moves if ns == canon[e])
        states[p] = (canon[e], rng.choice(moves)[0])
        if kind == "send":
            chans[p, peer].append(payload)


@pytest.mark.parametrize("text", ["->* msg(p,q) ->*", "->* msg(q,p) ->*", "->+"])
def test_preorder_core_want_contract(text):
    # each step also takes the states sampled at the step before as wants
    paths = (parse_path(text, SIG2),)
    core = PreorderCore("q", paths)
    rng = random.Random(text)
    checked = Counter()
    for m in CORPUS2[:5] + CORPUS2[13:]:  # the last two hold local q-events
        canon = preorder_canonical_states(m, "q", paths)
        wants = []
        for ctx, step in sampled_steps(core.step, core.start(), canon, m, rng):
            wants = check_want(rng, step, wants)
            checked[ctx.kind, ctx.proc] += bool(wants)
    assert all(checked[k, p] for k in ("local", "send", "recv") for p in "pq"), checked


def random_theta(rng, n, values):
    return tuple(rng.choice(values) for _ in range(n))


def random_ctx(rng):
    p = rng.choice(SIG3.processes)
    kind = rng.choice(("local", "send", "recv"))
    peer = None if kind == "local" else rng.choice([x for x in SIG3.processes if x != p])
    return StepCtx(p, kind, peer, rng.choice(SIG3.alphabet))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_first_core_want_contract(seed):
    # random states, payloads and wanted states, some entries outside Θ∪{⊤}
    rng = random.Random(seed)
    values = ("x", "y", TOP, BOTTOM)
    for pi in PATH_SHAPES:
        core = FirstCore(pi, ("x", "y"))
        n = core.width
        ctx = random_ctx(rng)
        base = rng.choice(("x", "y"))
        state = "start" if rng.random() < 0.3 else random_theta(rng, n, values[:3])
        msg_in = random_theta(rng, n, values[:3]) if ctx.kind == "recv" else None
        wants = [random_theta(rng, n, values) for _ in range(2)]
        wants.append((base,) + random_theta(rng, n - 1, values[:3]))
        check_want(rng, functools.partial(core.step, state, ctx, base, msg_in), wants)


_UNSEEN = object()  # an entry of the θ of a neighbour not yet seen


class _ReferenceFirstCore:
    """FirstCore as _theta_rule run edge by edge at every step, on a trie of
    its own: what the compiled tables must give."""

    def __init__(self, pi, theta_set):
        self.edges = PathTrie([_mirror_symbols(pi)], True).edges
        self.domain = tuple(theta_set) + (TOP,)
        self.unseen = (_UNSEEN,) * (len(self.edges) + 1)

    def step(self, state, ctx, base, payload_in):
        send = ctx.kind == "send"
        later = (self.unseen, self.unseen if send else None, ctx.proc, ctx.peer, ctx.sigma)
        guesses = [(base,)]
        for node, head, parent in self.edges:
            grown = []
            for t in guesses:
                v = _theta_rule(head, parent, node, t[parent], TOP, *later)
                grown += [t + (g,) for g in self.domain] if v is _UNSEEN else [t + (v,)]
            guesses = grown
        if state != "start":
            guesses = self._agreeing(state, guesses)
        if payload_in is not None:
            guesses = self._agreeing(payload_in, guesses, (ctx.peer, ctx.proc))
        return [(t, t[-1], t if send else None) for t in guesses]

    def _agreeing(self, t, thetas, at=None):
        """The θs that agree with t at its ⊏-successor, or at its message's
        receiver with at = (sender process, receiver process)."""
        unseen = (self.unseen, None, None, None) if at is None else (None, self.unseen, *at)
        reads = [
            (node, head, parent)
            for node, head, parent in self.edges
            if _theta_rule(head, parent, node, t[parent], TOP, *unseen, None) is _UNSEEN
        ]
        out = []
        for theta in thetas:
            seen = (theta, None, None, None) if at is None else (None, theta, *at)
            if all(
                _theta_rule(head, parent, node, t[parent], TOP, *seen, None) == t[node]
                for node, head, parent in reads
            ):
                out.append(theta)
        return out

    def final(self, state):
        return state == "start" or bool(self._agreeing(state, [None]))


def first_core_cases(rng, core, theta_set, count):
    """(state, ctx, base, payload) cases for a FirstCore, states and payloads
    drawn from earlier cases' moves or at random over Θ∪{⊤, ⊥}."""
    values = tuple(theta_set) + (TOP, BOTTOM)
    n = core.width
    seen = []
    for _ in range(count):
        ctx = random_ctx(rng)
        base = rng.choice(theta_set)

        def theta():
            if seen and rng.random() < 0.6:
                return rng.choice(seen)
            return random_theta(rng, n, values)

        state = "start" if rng.random() < 0.2 else theta()
        payload = theta() if ctx.kind == "recv" else None
        moves = list(core.step(state, ctx, base, payload))
        seen += [mv[0] for mv in moves[:3]]
        yield state, ctx, base, payload


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), colours_first=st.booleans())
def test_first_core_tables_match_theta_rule(seed, colours_first):
    # both domains on one fresh mirror chain trie, in either order, give the
    # rule-per-edge moves in the same order, the same final, and with a
    # wanted state exactly the moves to it
    rng = random.Random(seed)
    constructions._chain_trie.cache_clear()
    domains = [FOUR_COLORS, ("x", "y")]
    if not colours_first:
        domains.reverse()
    for pi in PATH_SHAPES:
        cores = [(FirstCore(pi, d), _ReferenceFirstCore(pi, d), d) for d in domains]
        assert cores[0][0].tables is not cores[1][0].tables
        for core, ref, theta_set in cores:
            for state, ctx, base, payload in first_core_cases(rng, core, theta_set, 6):
                moves = list(core.step(state, ctx, base, payload))
                assert moves == ref.step(state, ctx, base, payload), (pi, state, payload)
                assert core.final(state) == ref.final(state), (pi, state)
                wants = [mv[0] for mv in rng.sample(moves, min(2, len(moves)))]
                wants.append(random_theta(rng, core.width, theta_set + (TOP,)))
                for want in wants:
                    got = list(core.step(state, ctx, base, payload, want))
                    assert got == [mv for mv in moves if mv[0] == want], (pi, want)


def test_first_core_steps_run_no_rule_once_compiled(monkeypatch):
    # after a warm-up, the same shapes' steps, checks and finals are table
    # lookups: _theta_rule runs only in the compilers
    calls = Counter()
    rule = constructions._theta_rule

    def counting(*args):
        calls["rule"] += 1
        return rule(*args)

    rng = random.Random(13)
    cases = []
    for pi in PATH_SHAPES:
        for theta_set in (("x", "y"), FOUR_COLORS):
            core = FirstCore(pi, theta_set)
            cases += [(core, case) for case in first_core_cases(rng, core, theta_set, 8)]

    def run_all():
        moved = 0
        for core, (state, ctx, base, payload) in cases:
            moves = list(core.step(state, ctx, base, payload))
            for new_state, _, _ in moves[:2]:
                assert list(core.step(state, ctx, base, payload, new_state))
                core.final(new_state)
            core.final(state)
            moved += len(moves)
        return moved

    moved = run_all()
    monkeypatch.setattr(constructions, "_theta_rule", counting)
    assert run_all() == moved > 0
    assert calls["rule"] == 0
    # a fresh domain compiles, so the counter does see the compilers' calls
    list(FirstCore(PI, ("w",)).step("start", StepCtx("q", "local", None, "a"), "w", None))
    assert calls["rule"] > 0


def test_warm_mirror_lookups_build_no_msg(monkeypatch):
    # a path's mirrored symbols are kept per path, so a warm first_theta or
    # FirstCore finds its mirror chain trie without building a Msg
    m = CORPUS3[0]
    made = []
    init = Msg.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    def lookups():
        for pi in PATH_SHAPES:
            first_theta(m, pi, m.label)
            FirstCore(pi, ("x", "y"))

    lookups()
    monkeypatch.setattr(Msg, "__init__", counting)
    lookups()
    assert made == []
    Msg("p", "q")  # the counter does see a construction
    assert made == [("p", "q")]


def test_replay_enumerates_no_guesses():
    # with a wanted state the first-core checks it against the template and
    # never builds the unrestricted guess list
    constructions._chain_trie.cache_clear()
    pi2 = star_prepend(PI2)
    mach = build_fixpoint_cfm("p", "q", PI, pi2)
    for m in [fig_flipped(), *CORPUS3[:3]]:
        replayed(mach, m)
    trie = constructions._chain_trie(_mirror_symbols(pi2), True)
    tables = trie.guess_tables(FOUR_COLORS + (TOP,))
    assert tables._templates  # the replay stepped on these tables
    assert tables._guesses == {} and tables._indexes == {}


def test_theta_rule_has_one_caller():
    # the θ rule is evaluated in one place: every use of the name _theta_rule
    # in constructions.py, a call or an alias of the function, is inside
    # PathTrie.template
    callers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "_theta_rule":
                callers.append(".".join(where))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, where + (child.name,) if named else where)

    visit(ast.parse(Path(constructions.__file__).read_text()), ())
    assert callers and set(callers) == {"PathTrie.template"}


def test_a_shape_runs_the_rule_only_through_its_template(monkeypatch):
    # on a fresh mirror chain trie, a shape's program, its guess template and
    # both agreement checks call _theta_rule only inside PathTrie.template,
    # and made again they call it no more
    trie = PathTrie([_mirror_symbols(star_prepend(PI2))], True)
    t = ("c1", "c2", TOP, "z1", TOP, "c1")  # nodes 3 and 5, →*, read the successor
    assert len(t) == len(trie.edges) + 1
    rule, template = constructions._theta_rule, PathTrie.template
    calls, depth = Counter(), [0]

    def counting(*args):
        calls["inside" if depth[0] else "outside"] += 1
        return rule(*args)

    def templating(self, key):
        depth[0] += 1
        try:
            return template(self, key)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(constructions, "_theta_rule", counting)
    monkeypatch.setattr(PathTrie, "template", templating)

    def build():
        trie.program((True, "q", "r", None))
        tables = trie.guess_tables(FOUR_COLORS + (TOP,))
        tables.template((True, "r", "q", "a"))
        # the successor's check, and the receiver's of a message from r to q
        return tables.agreement(t, None), tables.agreement(t, ("r", "q"))

    checks = build()
    assert all(reads for reads, _ in checks)
    assert calls["inside"] > 0 and calls["outside"] == 0
    made = dict(calls)
    assert build() == checks
    assert calls == made


def test_compiling_every_pass_program_keeps_no_template(monkeypatch):
    # a template is made afresh on each call, once per compiled program, and
    # a trie that serves passes keeps none: after every pass program of a
    # fresh until trie is compiled, no template made is reachable from it
    made = []
    template = PathTrie.template

    def keeping(self, key):
        made.append(template(self, key))
        return made[-1]

    monkeypatch.setattr(PathTrie, "template", keeping)
    trie = _since_plan.__wrapped__(SIG2, True)[0]
    key = (True, "q", "p", "a")
    assert trie.template(key) == trie.template(key) and made[0] is not made[1]
    del made[:]
    programs = trie.shape_programs(SIG2.processes)
    k = len(SIG2.processes)
    for code in range(2 * (k + 1) * k):
        for letter in ABCD + ("z",):
            programs[code, letter]
    assert len(made) == len(trie._programs) == 2 * (k + 1) * k * 5
    kept, seen, todo = {id(t) for t in made}, set(), [vars(trie)]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert id(obj) not in kept
        if isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple)):
            todo += obj
    assert len(seen) > len(trie.edges)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fix_core_guess_want_contract(seed):
    rng = random.Random(seed)
    colours = FOUR_COLORS + (TOP,)
    pi, pi2 = rng.choice(PATH_SHAPES), rng.choice(PATH_SHAPES)
    core = FixCore("q", pi, pi2)
    n5, n4 = core.fa.first.width, len(core.fa.last.trie.edges) + 1

    def random_state(start_ok):
        if start_ok and rng.random() < 0.3:
            return core.start()
        return (
            (random_theta(rng, n5, colours), random_theta(rng, n4, colours + (BOTTOM,))),
            rng.choice(("c1", "c2")),
        )

    ctx = random_ctx(rng)
    msg_in = random_state(False)[0] if ctx.kind == "recv" else None
    wants = [random_state(False) for _ in range(2)]
    check_want(rng, functools.partial(core.guess, random_state(True), ctx, msg_in), wants)


def _one_frame_cases(rng, core, reference, draw_base, random_state, count):
    """(state, ctx, base or bit, payload) cases for a FaCore or FixCore,
    with their reference moves: states and payloads drawn from earlier
    cases' moves, or at random (a FixCore's payload is its FaCore's)."""
    reached, sent = [core.start()], []
    for _ in range(count):
        ctx = random_ctx(rng)
        r = rng.random()
        state = rng.choice(reached) if r < 0.7 else random_state() if r < 0.9 else core.start()
        payload = None
        if ctx.kind == "recv":
            if sent and rng.random() < 0.7:
                payload = rng.choice(sent)
            else:
                payload = random_state()
                payload = payload[0] if isinstance(core, FixCore) else payload
        case = (state, ctx, draw_base(), payload)
        moves = list(reference(core, *case))
        reached += [mv[0] for mv in rng.sample(moves, min(3, len(moves)))]
        sent += [mv[2] for mv in moves[:3] if mv[2] is not None]
        yield case, moves


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_frame_steps_match_the_nested_reference(seed):
    # FaCore.step, over both guess domains, and FixCore.step_with_bit yield
    # the moves of the nested composition in the same order: every path
    # shape as π and as π′, random contexts, states and payloads reached by
    # earlier moves or drawn at random, and, given want, each reference
    # move's state and a state that is no move
    rng = random.Random(seed)
    xy = ("x", "y")
    second = rng.sample(PATH_SHAPES, len(PATH_SHAPES))
    for pi, pi2 in zip(PATH_SHAPES, second):
        fix = FixCore("q", pi, pi2)
        n5, n4 = fix.fa.first.width, len(fix.fa.last.trie.edges) + 1

        def fa_state(values):
            return random_theta(rng, n5, values + (TOP,)), random_theta(rng, n4, values + (BOTTOM,))

        cores = [
            (FaCore(pi, pi2, xy), FaCore.step, reference_fa_step,
             lambda: rng.choice(xy), lambda: fa_state(xy)),
            (FaCore(pi, pi2, FOUR_COLORS), FaCore.step, reference_fa_step,
             lambda: rng.choice(FOUR_COLORS), lambda: fa_state(FOUR_COLORS)),
            (fix, FixCore.step_with_bit, reference_fix_step,
             lambda: rng.choice((0, 1)), lambda: (fa_state(FOUR_COLORS), rng.choice(("c1", "c2")))),
        ]
        for core, step, reference, draw_base, random_state in cores:
            for case, moves in _one_frame_cases(rng, core, reference, draw_base, random_state, 6):
                assert list(step(core, *case)) == moves, (pi, pi2, case)
                states = [mv[0] for mv in moves]
                stray = random_state()
                wants = states + ([] if stray in states else [stray])
                for want in wants:
                    got = list(step(core, *case, want))
                    assert got == list(reference(core, *case, want)), (pi, pi2, case, want)
                    assert got == [mv for mv in moves if mv[0] == want]


def _search_inputs():
    """(machine, encoded MSC) pairs of the bench's fixpoint, first-label and
    fa-label run searches: every 2-process shape of 4 events with a q-event
    under seeded labels, with its oracle fixpoint bits and each single-bit
    error on q, and seeded label instances, correct and with one error."""
    rng = random.Random(35)
    pi = parse_path("->* msg(p,q) ->*", SIG2)
    pi2 = star_prepend(pi)
    fix = build_fixpoint_cfm("p", "q", pi, pi2)
    for shape in enumerate_mscs(SIG2, 4, max_labelings=1):
        if len(shape.events) != 4 or not shape.events_of("q"):
            continue
        m = Msc(SIG2, [(e, shape.loc[e], rng.choice("ab")) for e in shape.events], shape.msg)
        bits = {e: 0 for e in m.events}
        for e in m.events_of("q"):
            bits[e] = 1 if f_pair(m, pi, pi2, e) == e else 0
        yield fix, encode(m, bits)
        for e in m.events_of("q"):
            yield fix, encode(m, {**bits, e: 1 - bits[e]})
    theta = ("x", "y")
    labels = [build_first_label_cfm(theta, pi), build_fa_label_cfm(theta, "q", "q", PLUS, STAR)]
    for machine in labels:
        for _ in range(12):
            m = next(m for m in iter(lambda: random_msc(SIG2, rng, 3), None) if m.events_of("q"))
            annot = machine.annotate(m, {e: rng.choice(theta) for e in m.events})
            yield machine, encode(m, annot)
            e = rng.choice(m.events_of("q"))
            xi1, xi2 = annot[e]
            yield machine, encode(m, {**annot, e: (xi1, "y" if xi2 == "x" else "x")})


def test_search_with_one_frame_steps_is_the_nested_search(monkeypatch):
    # on the bench's label and fixpoint inputs, the run search returns the
    # same run (or None) and visits, steps and prunes as many nodes as with
    # the nested reference steps patched in; every run returned is valid
    def searched(machine, target):
        stats: dict = {}
        return find_accepting_run(machine, target, stats=stats), stats

    found = Counter()
    for machine, target in _search_inputs():
        got = searched(machine, target)
        with monkeypatch.context() as patched:
            patched.setattr(FaCore, "step", reference_fa_step)
            patched.setattr(FixCore, "step_with_bit", reference_fix_step)
            assert got == searched(machine, target), machine.name
        run = got[0]
        if run is not None:
            assert validate_run(machine.with_signature(target.signature), target, run) == []
        found[machine.name.split("[")[0], run is not None] += 1
    assert found["fixpoint", True] > 20 and found["fixpoint", False] > 20, found
    assert all(found[kind, True] and found[kind, False] for kind in ("first-label", "fa-label"))


def recorded_products(monkeypatch, *modules):
    """The list that the step tuple of every product_moves call, made
    through any of ``modules``, is appended to."""
    made = []

    def recording(steps, *args):
        made.append(steps)
        return product_moves(steps, *args)

    for module in modules:
        monkeypatch.setattr(module, "product_moves", recording)
    return made


def test_gossip_pair_part_want_contract(monkeypatch):
    # each (src, tgt) pair's part as the gossip step runs it: the first
    # product of a replay is the gossip step's, over the pairs' parts
    mach = build_gossip_cfm(SIG2)
    m = CORPUS2[0]
    made = recorded_products(monkeypatch, constructions)
    replayed(mach, m)
    parts = made[0]
    monkeypatch.undo()
    [start] = mach._starts("p")
    canon = mach.canonical_states(m)
    rng = random.Random(21)
    assert len(parts) == len(start) == 4
    for i, part in enumerate(parts):
        pair_canon = {e: state[i] for e, state in canon.items()}

        def core_step(state, ctx, msg_in, want=None, part=part):
            return part(state, ctx, msg_in, want)

        wants, checked = [], 0
        for ctx, step in sampled_steps(core_step, start[i], pair_canon, m, rng):
            wants = check_want(rng, step, wants)
            checked += bool(wants)
        assert checked >= len(m.events) // 2, i


def test_product_parts_are_made_once_per_core(monkeypatch):
    # every product, at every event of a replay, steps the tuple of parts
    # that its core made once: the gossip step's, each pair part's and each
    # pair's PreorderCore's
    made = recorded_products(monkeypatch, constructions)
    mach = build_gossip_cfm(SIG2)
    for m in CORPUS2[:4]:
        replayed(mach, m)
    pairs = len(SIG2.processes) ** 2
    assert len(made) > len({id(steps) for steps in made}) == 1 + 2 * pairs


def test_tl_guessed_part_want_contract():
    # a TL machine's part, an operand of the or and since machines, yields,
    # given a state, exactly its moves to that state; a wanted state is one
    # of the or machine's, a pair
    sig1 = SystemSignature(("p",), ("a", "b"))
    machine = compile_tl(parse_tl("a | !b"), sig1)
    [start] = machine._starts("p")
    rng = random.Random(3)
    for sigma in sig1.alphabet:
        ctx = StepCtx("p", "local", None, sigma)
        step = functools.partial(machine.part, start, ctx, None)
        assert check_want(rng, step, [("s", "t"), ("t", "s")])


def test_tl_product_parts_are_made_once_per_machine(monkeypatch):
    # at two events, the since step and its or operand's step each step
    # the part tuples that their machines made once: the since machine's
    # operands and pairs, and the or machine's operands
    made = recorded_products(monkeypatch, tl)
    sig1 = SystemSignature(("p",), ("a", "b"))
    machine = compile_tl(parse_tl("(a | b) S b"), sig1)
    [start] = machine._starts("p")
    for sigma in sig1.alphabet:  # with no past event the formula is false
        assert next(machine.step("p", start, "local", (sigma, 0), None, None), None)
    assert len(made) > len({id(steps) for steps in made}) == 3


def test_tl_or_chain_step_computes_each_bit_once(monkeypatch):
    # every or machine's part computes its bit from its operands' parts,
    # one product per level, where guessing each operand's bit made 2^d
    made = recorded_products(monkeypatch, tl)
    sig1 = SystemSignature(("p",), ("a", "b"))
    phi = tl.Atom("a")
    for _ in range(12):
        phi = tl.Or(phi, tl.Atom("b"))
    machine = compile_tl(phi, sig1)
    [start] = machine._starts("p")
    assert len(list(machine.step("p", start, "local", ("a", 1), None, None))) == 1
    assert not list(machine.step("p", start, "local", ("a", 0), None, None))
    assert len(made) == 2 * 12


def test_tl_since_part_given_want_yields_its_moves_to_it():
    # at k=1, the first move's state as want: the pairs' cores guess only
    # what it holds, so the step ends at once
    sig1 = SystemSignature(("p",), ("a", "b"))
    machine = compile_tl(parse_tl("a S b"), sig1)
    [start] = machine._starts("p")
    ctx = StepCtx("p", "local", None, "a")
    t0 = time.perf_counter()
    first = next(machine.part(start, ctx, None, None))
    moves = list(machine.part(start, ctx, None, first[0]))
    assert time.perf_counter() - t0 < 1.0
    assert first in moves and all(move[0] == first[0] for move in moves)


def test_gossip_step_want_contract_at_k1():
    # the first event's step, under every annotation, and the second
    # event's from states sampled at the first
    mach = build_gossip_cfm(SystemSignature(("p",), ("a", "b")))
    rng = random.Random(1)

    def step(state, sigma, xi):
        return functools.partial(mach.step, "p", state, "local", (sigma, xi), None, None)

    [start] = mach._starts("p")
    annots = [(None,), ("a",), ("b",)]
    assert sum(len(list(step(start, "a", xi)(None))) for xi in annots) == 1620
    for xi in annots:
        for state in check_want(rng, step(start, "a", xi)):
            for xi2 in annots:
                check_want(rng, step(state, "b", xi2))


@pytest.mark.parametrize("kind", ["last-label", "first-label", "fa-label", "fixpoint", "tl"])
def test_search_step_want_contract(kind):
    # every machine's search step takes want: along an accepting run of the
    # correct annotation, each event's step from the run's state, given the
    # run's next state, its state before and states sampled from its moves
    theta = ("x", "y")
    rng = random.Random(kind)
    machine = {
        "last-label": build_last_label_cfm(theta, PI),
        "first-label": build_first_label_cfm(theta, PI),
        "fa-label": build_fa_label_cfm(theta, "q", "q", PLUS, STAR),
        "fixpoint": build_fixpoint_cfm("p", "q", PI, star_prepend(PI)),
        "tl": compile_tl(parse_tl("!a | @q"), SIG2),
    }[kind]
    checked = Counter()
    for m in CORPUS2:
        if kind.endswith("label"):
            annot = machine.annotate(m, {e: rng.choice(theta) for e in m.events})
        else:
            annot = machine.annotate(m)
        for t in find_accepting_run(machine, encode(m, annot)).assignment.values():
            msg_in = t.msg if t.kind == "recv" else None
            step = functools.partial(
                machine.step, t.proc, t.source, t.kind, t.label, t.peer, msg_in
            )
            check_want(rng, step, [t.target, t.source])
            checked[t.kind] += 1
    assert all(checked[k] >= 4 for k in ("local", "send", "recv")), checked
