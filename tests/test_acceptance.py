"""End-to-end acceptance gate.

Each test is one criterion; the pytest -v line for it is the pass/fail
record.  All randomness is seeded, so the gate is fully deterministic.
"""

import itertools
import random
import time

from mscgossip.cfm import accepts, find_accepting_run, mirror_cfm, oracle_accepts, product, relabel
from mscgossip.constructions import (
    build_fa_label_cfm,
    build_first_label_cfm,
    build_fixpoint_cfm,
    build_gossip_cfm,
    build_last_label_cfm,
    build_preorder_cfm,
    oracle_gossip_annotation,
)
from mscgossip.corpus import enumerate_mscs, random_cfm, random_corpus
from mscgossip.impossibility import (
    FamilyParams,
    build_family_msc,
    naive_gossip_cfm,
    q_label_spec,
    q_labels_correct,
    refute_deterministic,
)
from mscgossip.msc import (
    BOTTOM,
    ExtendedMsc,
    Msc,
    SystemSignature,
    TOP,
    causal_leq,
    last_on_process,
    mirror_msc,
)
from mscgossip.paths import (
    comp,
    eval_path,
    f_pair,
    first,
    last,
    parse_path,
    plus_prepend,
    preorder_at,
    star_append,
    star_prepend,
)
from mscgossip.tl import (
    Atom,
    NextOn,
    ObsOn,
    PrevOn,
    UntilOn,
    check_translation,
    eval_tl,
    expand_derived,
    format_tl,
)
from figures import SIG3, acceptance_formula, fig_flipped, mirror_formula, oracle_rows
from test_impossibility import CLAIMANTS

SIG2 = SystemSignature(("p", "q"), ("a", "b"))
PI = parse_path("msg(p,q) ->*", SIG3)
PI2 = parse_path("msg(p,r) ->* msg(r,q) ->*", SIG3)


def test_criterion_1_fixture_preorders_and_fixpoint_maps():
    t0 = time.perf_counter()
    m = fig_flipped()
    strict = {"f0", "f1", "f2", "f6"}
    for i in range(8):
        e = f"f{i}"
        pre = preorder_at(m, (PI, PI2), e)
        if e in strict:
            assert pre.strictly(PI2, PI), e
        else:
            assert (PI, PI2) in pre.leq, e
    star2, plus1 = star_prepend(PI2), plus_prepend(PI)
    assert f_pair(m, PI, star2, "f1") == "f3"
    assert f_pair(m, PI, star2, "f2") == "f3"
    assert f_pair(m, PI, star2, "f3") == "f3"
    assert f_pair(m, PI2, plus1, "f4") == "f6"
    assert f_pair(m, PI2, plus1, "f5") == "f6"
    assert f_pair(m, PI2, plus1, "f6") == "f6"
    assert f_pair(m, PI, star2, "f7") == "f7"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_worked_examples():
    m = fig_flipped()
    assert ("e4", "f5") in eval_path(m, PI)
    assert eval_path(m, parse_path("[b] -> [b] msg(p,q)", SIG3)) == {("e3", "f5")}
    assert last_on_process(m, "p", "f5") == "e5"
    assert last_on_process(m, "p", "f2") == "e2"
    assert comp(SIG3, PI2) == {("p", "q")}
    assert comp(SIG3, parse_path("eps")) == {(p, p) for p in SIG3.processes}
    assert comp(SIG3, parse_path("msg(p,q) ->* msg(r,p)", SIG3)) == set()


def test_criterion_3_gossip_oracle_equivalence():
    mach = build_gossip_cfm(SIG3)
    structured = list(
        itertools.islice(enumerate_mscs(SIG3, 4, max_labelings=3), 600)
    )
    assert len(structured) >= 500
    rnd = random_corpus(SIG3, 200, seed=11, max_events_per_proc=8)
    alternatives = list(SIG3.alphabet) + [None]
    accepted = rejected = 0
    for m in structured + rnd:
        ext = oracle_gossip_annotation(m)
        assert mach.decide(ext)
        accepted += 1
        for e in m.events:
            tup = ext.annot[e]
            for i in range(len(SIG3.processes)):
                for v in alternatives:
                    if v == tup[i]:
                        continue
                    bad = dict(ext.annot)
                    bad[e] = tup[:i] + (v,) + tup[i + 1 :]
                    assert not mach.decide(ExtendedMsc(m, bad))
                    rejected += 1
    assert accepted == len(structured) + 200 and rejected > 40000


def _path_pool():
    return [
        parse_path(t, SIG3)
        for t in [
            "msg(p,q)",
            "msg(p,q) ->*",
            "->* msg(p,q)",
            "[a] msg(p,q)",
            "-> msg(p,q)",
            "msg(p,q) [b]",
        ]
    ]


def test_criterion_4_label_machines_oracle_equivalent():
    rng = random.Random(101)
    corpus = random_corpus(SIG3, 100, seed=13, max_events_per_proc=3)
    pool = _path_pool()
    theta = ("t0", "t1", "t2")
    counts = dict.fromkeys(("last", "first", "fa", "fix", "pre"), 0)
    for m in corpus:
        xi1 = {e: rng.choice(theta) for e in m.events}
        pi = rng.choice(pool)
        pi2 = rng.choice([star_prepend(rng.choice(pool)), star_append(pi)])

        for name, mach, ann in [
            ("last", build_last_label_cfm(theta, pi), None),
            ("first", build_first_label_cfm(theta, pi), None),
            ("fa", build_fa_label_cfm(theta, "p", "q", pi, pi2), None),
        ]:
            ann = mach.annotate(m, xi1)
            assert mach.decide(ExtendedMsc(m, ann)), name
            e = rng.choice(m.events) if m.events else None
            if e is not None:
                bad = dict(ann)
                wrong = next(
                    t for t in theta + (TOP, BOTTOM) if t != ann[e][1]
                )
                bad[e] = (ann[e][0], wrong)
                if name == "fa" and m.loc[e] != "q":
                    pass  # off-target events carry the base value unchecked
                else:
                    assert not mach.decide(ExtendedMsc(m, bad)), name
            counts[name] += 1

        fix = build_fixpoint_cfm("p", "q", pi, pi2)
        fann = fix.annotate(m)
        assert fix.decide(ExtendedMsc(m, fann))
        qs = m.events_of("q")
        if qs:
            e = rng.choice(qs)
            bad = dict(fann)
            bad[e] = 1 - fann[e]
            assert not fix.decide(ExtendedMsc(m, bad))
        counts["fix"] += 1

        fam = (pool[1], pool[2])
        pre = build_preorder_cfm("p", "q", fam)
        pann = pre.annotate(m)
        assert pre.decide(ExtendedMsc(m, pann))
        if qs:
            e = rng.choice(qs)
            # claim π ⪯ π' iff not π' ⪯ π, and π' ⪯ π iff not π ⪯ π'
            (r0, r1), bad = pann[e], dict(pann)
            bad[e] = (r0 & 1 | (~r1 & 1) << 1, r1 & 2 | (~r0 >> 1 & 1))
            if bad[e] != pann[e]:
                assert not pre.decide(ExtendedMsc(m, bad))
        counts["pre"] += 1
    assert all(n == 100 for n in counts.values()), counts


def test_criterion_5_monotonicity_and_characterization():
    rng = random.Random(211)
    corpus = random_corpus(SIG3, 130, seed=17)
    pool = _path_pool()

    trials = 0
    while trials < 1000:  # last/first monotone along ->*, star absorption
        m = rng.choice(corpus)
        pi = rng.choice(pool)
        p = rng.choice(SIG3.processes)
        es = m.events_of(p)
        if len(es) < 2:
            continue
        i, j = sorted(rng.sample(range(len(es)), 2))
        e, f = es[i], es[j]
        le, lf = last(m, pi, e), last(m, pi, f)
        if le is not BOTTOM and lf is not BOTTOM:
            assert causal_leq(m, le, lf)
        fe, ff = first(m, pi, e), first(m, pi, f)
        if fe is not TOP and ff is not TOP:
            assert causal_leq(m, fe, ff)
        if le is not BOTTOM:
            assert last(m, star_append(pi), e) == le
        if fe is not TOP:
            assert first(m, star_prepend(pi), e) == fe
        trials += 1

    trials = 0
    while trials < 1000:  # f-pair monotone along ->*
        m = rng.choice(corpus)
        pi = rng.choice(pool)
        pi2 = star_prepend(rng.choice(pool))
        es = m.events_of("q")
        if len(es) < 2:
            continue
        i, j = sorted(rng.sample(range(len(es)), 2))
        ge = f_pair(m, pi, pi2, es[i])
        gf = f_pair(m, pi, pi2, es[j])
        if ge not in (BOTTOM, TOP) and gf not in (BOTTOM, TOP):
            assert causal_leq(m, ge, gf)
        trials += 1

    trials = 0  # the preorder machine's rows vs the brute-force preorder
    for m in corpus:
        for fam in [(pool[1], pool[2]), (pool[0],), (pool[2], pool[3])]:
            rows = build_preorder_cfm("p", "q", fam).annotate(m)
            for e in m.events_of("q"):
                assert rows[e] == oracle_rows(m, fam, e)
                trials += 1
        if trials >= 1000:
            break
    assert trials >= 1000


def test_criterion_6_no_deterministic_machine():
    naive = naive_gossip_cfm()
    res = refute_deterministic(naive)
    assert res.verdict == "accepts-wrong"
    m = res.counterexample
    assert accepts(naive, m) and not q_labels_correct(m)
    spec = q_label_spec(m)
    wrong = sorted(f for f, want in spec.items() if m.label[f] != want)
    assert wrong == ["f2", "f5"]

    assert len(CLAIMANTS) >= 3
    for name, c in CLAIMANTS.items():
        assert all(len(states) <= 3 for states in c.states.values())
        r = refute_deterministic(c)
        assert r.verdict == "accepts-wrong", name
        assert accepts(c, r.counterexample), name
        assert not q_labels_correct(r.counterexample), name

    fam = build_family_msc(FamilyParams(5, 2))
    assert len(fam.events) == 30
    assert len(fam.msg) == 15
    msg = set(fam.msg)
    # even p-events message q directly; odd ones relay through r
    assert ("e0", "f0") in msg and ("e4", "f7") in msg
    for i in range(5):
        assert (f"e{2 * i + 1}", f"g{2 * i}") in msg
        assert (f"g{2 * i + 1}", f"f{2 + i}") in msg
    for i in range(10):
        f = f"f{i}"
        assert fam.label[f] == fam.label[last_on_process(fam, "p", f)]


def test_criterion_7_tl_translation():
    mscs = [
        m
        for m in random_corpus(SIG2, 80, seed=21, max_events_per_proc=3)
        if len(m.events) <= 10
    ][:50]
    assert len(mscs) == 50
    rng = random.Random(2026)
    formulas = [acceptance_formula(rng, rng.randrange(1, 4)) for _ in range(30)]
    for phi in formulas:
        for m in mscs:
            ok, diffs = check_translation(phi, m)
            assert ok, (format_tl(phi), diffs)

    sugars = [
        NextOn("p", Atom("a")),
        PrevOn("q", Atom("b")),
        UntilOn("p", Atom("a"), Atom("b")),
        ObsOn("q", Atom("a")),
    ]
    for m in mscs:
        for s in sugars:
            assert eval_tl(m, s) == eval_tl(m, expand_derived(s))

    rng2 = random.Random(7)
    for t in range(500):
        m = mscs[t % len(mscs)]
        phi = acceptance_formula(rng2, rng2.randrange(1, 3))
        assert eval_tl(m, phi) == eval_tl(mirror_msc(m), mirror_formula(phi))


def test_criterion_8_cfm_infrastructure():
    small = list(enumerate_mscs(SIG2, 6, max_labelings=4))
    assert len(small) > 1000
    rng = random.Random(301)
    machines = [random_cfm(SIG2, rng) for _ in range(3)]
    for c in machines:
        for m in small:
            assert (find_accepting_run(c, m) is not None) == oracle_accepts(c, m)

    corpus = random_corpus(SIG2, 40, seed=41, max_events_per_proc=3)
    checked = 0
    ident = {a: a for a in SIG2.alphabet}
    while checked < 200:
        c1 = random_cfm(SIG2, rng)
        c2 = random_cfm(SIG2, rng)
        c12 = product(c1, c2)
        mc1 = mirror_cfm(c1)
        rc1 = relabel(c1, ident)
        for m in rng.sample(corpus, 5):
            want = accepts(c1, m)
            assert accepts(mc1, mirror_msc(m)) == want
            assert accepts(c12, m) == (want and accepts(c2, m))
            assert accepts(rc1, m) == want
            checked += 1
