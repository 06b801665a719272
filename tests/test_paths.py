import os
import subprocess
import sys
from pathlib import Path

import pytest

from mscgossip.corpus import random_corpus
from mscgossip.msc import BOTTOM, TOP, Msc, MscError, SystemSignature, causal_leq, causal_lt
from mscgossip.paths import (
    EPS,
    PLUS,
    STAR,
    PathError,
    PathExpr,
    Step,
    StarStep,
    comp,
    eval_path,
    f_pair,
    first,
    format_path,
    gossip_paths,
    gossip_paths_between,
    last,
    parse_path,
    plus_prepend,
    preorder_at,
    star_append,
    star_prepend,
)
from figures import SIG3, fig_base, fig_flipped

PI = parse_path("msg(p,q) ->*", SIG3)
PI2 = parse_path("msg(p,r) ->* msg(r,q) ->*", SIG3)

CORPUS = random_corpus(SIG3, count=40, seed=23)


# -- syntax -------------------------------------------------------------------


def test_parse_and_format_roundtrip():
    for text in ["eps", "->", "->*", "msg(p,q)", "[a]", "-> ->* msg(p,q) [b] ->*"]:
        pi = parse_path(text, SIG3)
        assert parse_path(format_path(pi), SIG3) == pi
    assert parse_path("eps") == EPS
    assert format_path(EPS) == "eps"
    # trailing blanks end the input
    assert parse_path("msg(p,q) ->*  ", SIG3) == PI


def test_plus_is_sugar():
    assert parse_path("->+") == PathExpr((Step(), StarStep()))
    assert parse_path("->+ msg(p,q)", SIG3).symbols[:2] == (Step(), StarStep())


def test_parse_errors():
    with pytest.raises(PathError):
        parse_path("msg(p)")
    with pytest.raises(PathError):
        parse_path("eps ->")
    with pytest.raises(PathError):
        parse_path("msg(p,z)", SIG3)
    with pytest.raises(PathError):
        parse_path("msg(p,p)", SIG3)
    with pytest.raises(PathError):
        parse_path("[z]", SIG3)
    with pytest.raises(PathError):
        parse_path("foo")


def test_star_helpers():
    assert star_append(PI) == PI  # already ends in ->*
    assert star_append(parse_path("->")) == parse_path("-> ->*")
    starred = star_prepend(PI2)
    assert starred.symbols[0] == StarStep() and star_prepend(starred) == starred
    assert star_prepend(parse_path("msg(p,q)", SIG3)) == parse_path(
        "->* msg(p,q)", SIG3
    )
    assert plus_prepend(PI) == parse_path("->+ msg(p,q) ->*", SIG3)


# -- compatibility ------------------------------------------------------------


def test_comp_examples():
    ident = {(p, p) for p in SIG3.processes}
    assert comp(SIG3, EPS) == ident
    assert comp(SIG3, STAR) == ident
    assert comp(SIG3, PLUS) == ident
    assert comp(SIG3, parse_path("[a] ->*", SIG3)) == ident
    assert comp(SIG3, PI) == {("p", "q")}
    assert comp(SIG3, PI2) == {("p", "q")}
    assert comp(SIG3, parse_path("msg(p,q) msg(p,r)", SIG3)) == set()
    assert comp(SIG3, parse_path("msg(p,q) msg(q,r)", SIG3)) == {("p", "r")}


# -- semantics on the fixture -------------------------------------------------


def test_eval_msg_star():
    m = fig_base()
    rel = eval_path(m, PI)
    assert ("e0", "f0") in rel
    assert ("e0", "f7") in rel
    assert ("e4", "f5") in rel
    assert ("e4", "f4") not in rel
    assert ("e6", "f5") not in rel
    assert all(m.loc[a] == "p" and m.loc[b] == "q" for a, b in rel)


def test_eval_label_tests():
    m = fig_base()
    rel = eval_path(m, parse_path("[b] -> [b] msg(p,q)", SIG3))
    assert rel == {("e3", "f5")}


def test_eval_eps_and_star():
    m = fig_base()
    assert eval_path(m, EPS) == {(e, e) for e in m.events}
    rel = eval_path(m, STAR)
    assert ("e0", "e7") in rel and ("e0", "e0") in rel
    assert ("e0", "f0") not in rel  # ->* stays on one process
    relp = eval_path(m, PLUS)
    assert ("e0", "e0") not in relp and ("e0", "e1") in relp


def test_last_first_fig():
    m = fig_base()
    assert last(m, PI, "f0") == "e0"
    assert last(m, PI, "f4") == "e2"
    assert last(m, PI, "f5") == "e4"
    assert last(m, PI2, "f0") is BOTTOM
    assert last(m, PI2, "f2") == "e1"
    assert last(m, PI2, "f5") == "e5"
    assert first(m, PI, "e2") == "f1"
    assert first(m, PI2, "e7") == "f7"
    assert first(m, PI2, "e2") is TOP  # e2 sends to q, not r
    for query in (last, first):
        with pytest.raises(MscError, match="unknown event id 'zz'"):
            query(m, PI, "zz")


def test_f_pair_frozen_values():
    m = fig_flipped()
    star_pi2 = star_prepend(PI2)
    plus_pi = plus_prepend(PI)
    assert f_pair(m, PI, star_pi2, "f1") == "f3"
    assert f_pair(m, PI, star_pi2, "f2") == "f3"
    assert f_pair(m, PI, star_pi2, "f3") == "f3"
    assert f_pair(m, PI2, plus_pi, "f4") == "f6"
    assert f_pair(m, PI2, plus_pi, "f5") == "f6"
    assert f_pair(m, PI2, plus_pi, "f6") == "f6"
    assert f_pair(m, PI, star_pi2, "f7") == "f7"
    assert f_pair(m, PI2, plus_pi, "f0") is BOTTOM  # last is already BOTTOM


def test_f_pair_requires_shared_comp():
    m = fig_base()
    with pytest.raises(PathError):
        f_pair(m, PI, parse_path("msg(p,r) ->*", SIG3), "f0")


def _maxima(po):
    """The paths of ``po`` that every path is ⪯ to."""
    return tuple(a for a in po.paths if all(po.holds(b, a) for b in po.paths))


def test_preorder_fig_row():
    m = fig_flipped()
    expect_strict_pi2 = {"f0", "f1", "f2", "f6"}  # π' ≺ π there, π ⪯ π' elsewhere
    for i in range(8):
        e = f"f{i}"
        po = preorder_at(m, [PI, PI2], e)
        if e in expect_strict_pi2:
            assert po.strictly(PI2, PI)
            assert po.holds(PI2, PI) and not po.holds(PI, PI2)
            assert _maxima(po) == (PI,)
        else:
            assert po.holds(PI, PI2)
            assert _maxima(po)[-1] == PI2


# -- properties against brute force ------------------------------------------


def test_last_is_max_preimage_random():
    for m in CORPUS[:15]:
        for pi in (PI, PI2, PLUS, STAR):
            rel = eval_path(m, pi)
            for e in m.events:
                pre = [f for f, g in rel if g == e]
                got = last(m, pi, e)
                if not pre:
                    assert got is BOTTOM
                else:
                    assert got in pre
                    assert all(causal_leq(m, f, got) for f in pre)


def test_monotone_last_along_star():
    # last_π(e) ≤ last_π(f) whenever e ->* f; appending ->* keeps last unless ⊥
    for m in CORPUS[:15]:
        for pi in (PI, PI2):
            pis = star_append(pi)
            for p in m.signature.processes:
                es = m.events_of(p)
                vals = [last(m, pi, e) for e in es]
                for v, w in zip(vals, vals[1:]):
                    assert causal_leq(m, v, w)
                for e in es:
                    a, b = last(m, pi, e), last(m, pis, e)
                    assert a == b or (a is BOTTOM and b is BOTTOM) or a is b


def test_monotone_f_pair():
    for m in CORPUS[:10]:
        star_pi2 = star_prepend(PI2)
        es = m.events_of("q")
        for e, f in zip(es, es[1:]):
            a, b = f_pair(m, PI, star_pi2, e), f_pair(m, PI, star_pi2, f)
            assert causal_leq(m, a, b)


def test_preorder_needs_paths_that_end_on_the_event_process():
    with pytest.raises(PathError, match="cannot end on process p"):
        preorder_at(fig_flipped(), [PI, PI2], "e0")


def test_preorder_needs_paths_from_one_source_process():
    # last_→*(f3) is f3 on q and last_π(f3) is e1 on p: positions on two
    # processes do not order them, so the set is refused
    sig = SystemSignature(("p", "q"), ("a",))
    m = Msc(sig, [("e1", "p", "a"), ("e2", "p", "a"), ("f1", "q", "a"),
                  ("f2", "q", "a"), ("f3", "q", "a")], [("e1", "f3")])
    pi = parse_path("->* msg(p,q) ->*", sig)
    with pytest.raises(PathError, match="share no source process"):
        preorder_at(m, [STAR, pi], "f3")
    po = preorder_at(m, [pi, plus_prepend(pi)], "f3")
    assert po.strictly(plus_prepend(pi), pi)


def test_preorder_is_total_preorder():
    paths = (PI, PI2, plus_prepend(PI))
    for m in CORPUS[:10]:
        for e in m.events_of("q"):
            po = preorder_at(m, paths, e)
            for a in paths:
                assert po.holds(a, a)
                for b in paths:
                    assert po.holds(a, b) or po.holds(b, a)
                    for c in paths:
                        if po.holds(a, b) and po.holds(b, c):
                            assert po.holds(a, c)
            assert _maxima(po)


def test_preorder_matches_causal_comparison():
    for m in CORPUS[:10]:
        for e in m.events_of("q"):
            po = preorder_at(m, [PI, PI2], e)
            a, b = last(m, PI, e), last(m, PI2, e)
            assert po.holds(PI, PI2) == causal_leq(m, a, b)
            assert po.strictly(PI, PI2) == causal_lt(m, a, b)


# -- gossip path family -------------------------------------------------------


def test_gossip_paths_between():
    assert gossip_paths_between(SIG3, "p", "p") == (PLUS,)
    pq = gossip_paths_between(SIG3, "p", "q")
    assert len(pq) == 2  # direct and via r
    texts = {format_path(pi) for pi in pq}
    assert texts == {"->* msg(p,q) ->*", "->* msg(p,r) ->* msg(r,q) ->*"}
    with pytest.raises(PathError, match="unknown process"):
        gossip_paths_between(SIG3, "p", "z")


def test_gossip_paths_full_family():
    fam = gossip_paths(SIG3)
    # 3 same-process (all equal ->+, deduplicated to 1) + 6 ordered pairs * 2
    assert len(fam) == 13
    assert PLUS in fam
    # ‖Π‖, the total symbol count
    assert len(PLUS) == 2
    assert sum(map(len, fam)) == 2 + 6 * (3 + 5)


def test_gossip_paths_lists_each_path_once_in_first_order():
    for k in range(1, 6):
        sig = type(SIG3)(("p", "q", "r", "s", "t")[:k], ("a",))
        scanned = []
        for p in sig.processes:
            for q in sig.processes:
                scanned += [pi for pi in gossip_paths_between(sig, p, q) if pi not in scanned]
        assert gossip_paths(sig) == tuple(scanned), k


def test_gossip_paths_four_procs():
    sig4 = type(SIG3)(("p", "q", "r", "s"), ("a",))
    pq = gossip_paths_between(sig4, "p", "q")
    # sequences: pq, prq, psq, prsq, psrq
    assert len(pq) == 5


REIMPORT = """
import gc, importlib, sys
for _ in range(7):
    for name in [n for n in sys.modules if n == "mscgossip" or n.startswith("mscgossip.")]:
        del sys.modules[name]
    importlib.import_module("mscgossip")
    gc.collect()
print(sum(isinstance(o, dict) and o.get("__name__") == "mscgossip.paths" for o in gc.get_objects()))
"""


def test_reimported_path_modules_are_collected():
    # a typing.Union alias over the symbol classes sits in typing's cache
    # and keeps every re-imported copy of the modules alive
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
