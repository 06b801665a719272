import json
import os
import random
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mscgossip.cfm import Transition, Cfm, cfm_to_json, universal_cfm
from mscgossip.cli import (
    CorpusSpec,
    RunReport,
    dispatch,
    generate_corpus,
    main,
    search_with_report,
)
from mscgossip.constructions import oracle_gossip_annotation
from mscgossip.corpus import random_msc
from mscgossip.impossibility import FamilyParams, build_family_msc
from mscgossip.msc import (
    Msc,
    SystemSignature,
    is_valid,
    linearize,
    msc_to_json,
    validate_msc,
)
from mscgossip.paths import parse_path, format_path
from mscgossip.tl import MAX_DEPTH, parse_tl, format_tl
from figures import SIG3, fig_flipped
from test_impossibility import CLAIMANTS

SIG2 = SystemSignature(("p", "q"), ("a", "b"))


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(msc_to_json(fig_flipped())))
    return str(path)


def chain_cfm():
    sig = SystemSignature(("p",), ("a", "b"))
    ts = [
        Transition("p", 0, "local", "a", 0),
        Transition("p", 0, "local", "b", 1),
    ]
    return Cfm(sig, ["m"], {"p": [0, 1]}, {"p": 0}, ts, {(1,)})


# -- report types --------------------------------------------------------------


def test_run_report_invariant():
    with pytest.raises(ValueError):
        RunReport("rejected", run=object(), stats={})  # type: ignore[arg-type]
    RunReport("rejected", run=None, stats={})


def test_search_with_report_outcomes():
    c = chain_cfm()
    sig = c.signature
    good = Msc(sig, [("e0", "p", "a"), ("e1", "p", "b")], [])
    bad = Msc(sig, [("e0", "p", "b"), ("e1", "p", "b")], [])
    rep = search_with_report(c, good)
    assert rep.outcome == "accepted" and rep.run is not None
    assert rep.stats["visited"] >= 1 and rep.stats["wall_time"] >= 0
    rep2 = search_with_report(c, bad)
    assert rep2.outcome == "rejected" and rep2.run is None
    rep3 = search_with_report(c, good, budget=1)
    assert rep3.outcome == "budget-exhausted"


def test_reachable_structured_states_counts_states():
    # the universal machine has the one state u on every process
    m = random_msc(SIG3, random.Random(3), 4)
    rep = search_with_report(universal_cfm(SIG3), m)
    assert rep.outcome == "accepted" and len(rep.run.start) == 3
    assert rep.stats["reachable_structured_states"] == 1


# -- corpus generation ---------------------------------------------------------


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(seed=1, count=0, max_events_per_proc=1, process_count=1, alphabet_size=1)


def test_generate_corpus_deterministic_and_valid():
    spec = CorpusSpec(seed=7, count=12, max_events_per_proc=4, process_count=3, alphabet_size=2)
    c1, c2 = generate_corpus(spec), generate_corpus(spec)
    assert [msc_to_json(m) for m in c1] == [msc_to_json(m) for m in c2]
    assert all(not validate_msc(m) for m in c1)
    other = generate_corpus(CorpusSpec(8, 12, 4, 3, 2))
    assert [msc_to_json(m) for m in c1] != [msc_to_json(m) for m in other]


def test_generate_corpus_single_process_is_a_chain():
    # one process means no messages, so any output is a local chain
    spec = CorpusSpec(seed=1, count=1, max_events_per_proc=3, process_count=1, alphabet_size=2)
    (m,) = generate_corpus(spec)
    assert is_valid(m) and not m.msg and len(m.events) == 1


# -- exit codes over the subcommand surface ------------------------------------


def test_msc_validate_and_dot(fig_file, capsys):
    assert dispatch(["msc", "validate", fig_file]) == 0
    assert dispatch(["msc", "dot", fig_file]) == 0
    out = capsys.readouterr().out
    assert out.count('"e0"') >= 2 and "digraph" in out


def test_msc_dot_shows_an_annotation(tmp_path, capsys):
    m = fig_flipped()
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(msc_to_json(m, {e: f"x{e}" for e in m.events})))
    assert dispatch(["msc", "dot", str(path)]) == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert '"e0" [label="e0\\nb\\nxe0"];' in lines


def test_msc_validate_broken(tmp_path, capsys):
    obj = msc_to_json(fig_flipped())
    obj["messages"].append(["f7", "e0"])  # cycle
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert dispatch(["msc", "validate", str(path)]) == 1


def test_input_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert dispatch(["msc", "validate", missing]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert dispatch(["msc", "dot", str(garbage)]) == 2
    assert dispatch(["msc", "frobnicate"]) == 2
    assert dispatch(["path", "last"]) == 2


def test_invalid_msc_input_exits_2(tmp_path, capsys):
    # e3 -> f1 is sent after e2 -> f2 but received before it
    sig = SystemSignature(("p", "q"), ("a", "b"))
    m = Msc(sig, [("e2", "p", "a"), ("e3", "p", "b"), ("f1", "q", "a"),
                  ("f2", "q", "b")], [("e2", "f2"), ("e3", "f1")])
    assert any("FIFO" in issue for issue in validate_msc(m))
    path = tmp_path / "fifo.json"
    path.write_text(json.dumps(msc_to_json(m, {e: [None, None] for e in m.events})))
    assert dispatch(["msc", "validate", str(path)]) == 1
    assert dispatch(["gossip", "check", str(path)]) == 2
    assert dispatch(["tl", "check", str(path), "--formula", "a"]) == 2
    assert dispatch(["path", "last", str(path), "--path=->", "--event", "f2"]) == 2
    assert "FIFO" in capsys.readouterr().err


def test_cfm_run_refuses_a_fifo_violation_before_searching(tmp_path, capsys):
    # the run search reads a receive's message off its matched send, which
    # is the channel head only under FIFO: the MSC above never reaches it
    sig = SystemSignature(("p", "q"), ("a", "b"))
    m = Msc(sig, [("e2", "p", "a"), ("e3", "p", "b"), ("f1", "q", "a"),
                  ("f2", "q", "b")], [("e2", "f2"), ("e3", "f1")])
    msc_path = tmp_path / "fifo.json"
    msc_path.write_text(json.dumps(msc_to_json(m)))
    cfm_path = tmp_path / "u.json"
    cfm_path.write_text(json.dumps(cfm_to_json(universal_cfm(sig))))
    assert dispatch(["cfm", "run", str(cfm_path), str(msc_path)]) == 2
    assert "FIFO violation on channel p->q" in capsys.readouterr().err


INVALID_EDITS = pytest.mark.parametrize("edit, issue", [
    (lambda o: o["events"][1].update(proc="z"), "event 'f' on unknown process 'z'"),
    (lambda o: o["messages"].append(["e", "zz"]), "message endpoint 'zz' is not an event"),
], ids=["unknown-process", "unknown-event"])


def _invalid_msc_file(edit, tmp_path):
    m = Msc(SIG2, [("e", "p", "a"), ("f", "q", "b")], [("e", "f")])
    obj = msc_to_json(m, {"e": [None, None], "f": ["a", None]})
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return path


@INVALID_EDITS
def test_gossip_check_reports_validation_before_deriving_anything(edit, issue, tmp_path, capsys):
    path = _invalid_msc_file(edit, tmp_path)
    assert dispatch(["gossip", "check", str(path)]) == 2
    assert f"invalid MSC {path}: {issue}" in capsys.readouterr().err


@INVALID_EDITS
def test_msc_dot_draws_an_invalid_msc_as_it_is(edit, issue, tmp_path, capsys):
    path = _invalid_msc_file(edit, tmp_path)
    assert dispatch(["msc", "dot", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph msc {") and '"e" -> "f" [color=blue' in out


def _malformed_msc(case):
    obj = msc_to_json(fig_flipped(), {e: [None, None, None] for e in fig_flipped().events})
    if case == "list-id":
        obj["events"][0]["id"] = ["e0"]
    elif case == "string-processes":
        obj["processes"] = "pqr"
    else:  # top-level list
        obj = [obj]
    return obj


MSC_VERBS = [
    ["msc", "validate"], ["msc", "dot"], ["path", "eval", "--path=->"],
    ["path", "last", "--path=->", "--event", "e1"],
    ["path", "first", "--path=->", "--event", "e1"],
    ["path", "fpair", "--path=->", "--path2=->", "--event", "e1"],
    ["path", "compare", "--path=->", "--event", "e1"],
    ["gossip", "annotate"], ["gossip", "check"], ["gossip", "build"],
    ["tl", "eval", "--formula", "a"], ["tl", "compile", "--formula", "a"],
    ["tl", "check", "--formula", "a"],
]


@pytest.mark.parametrize("case", ["list-id", "string-processes", "top-level-list"])
def test_malformed_msc_json_exits_2(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed_msc(case)))
    cfm_path = tmp_path / "c.json"
    cfm_path.write_text(json.dumps(cfm_to_json(CLAIMANTS["echo"])))
    for verb in MSC_VERBS:
        assert dispatch(verb[:2] + [str(path)] + verb[2:]) == 2, verb
        assert "must be" in capsys.readouterr().err, verb
    assert dispatch(["cfm", "run", str(cfm_path), str(path)]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["list-state", "list-machines"])
def test_malformed_cfm_json_exits_2(case, fig_file, tmp_path, capsys):
    obj = cfm_to_json(CLAIMANTS["echo"])
    if case == "list-state":
        machine = obj["machines"]["q"]
        machine["states"][0] = [machine["states"][0]]
    else:
        obj["machines"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert dispatch(["cfm", "run", str(path), fig_file]) == 2
    assert dispatch(["cfm", "det", str(path)]) == 2
    assert dispatch(["cfm", "mirror", str(path)]) == 2
    assert dispatch(["cfm", "product", str(path), str(path)]) == 2
    assert dispatch(["impossible", "refute", str(path)]) == 2
    assert "must be" in capsys.readouterr().err


CFM_VERBS = {
    "cfm run": ["cfm", "run", "{cfm}", "{msc}"],
    "cfm det": ["cfm", "det", "{cfm}"],
    "cfm mirror": ["cfm", "mirror", "{cfm}"],
    "cfm product": ["cfm", "product", "{cfm}", "{cfm}"],
    "impossible refute": ["impossible", "refute", "{cfm}"],
}


@pytest.mark.parametrize("verb", CFM_VERBS.values(), ids=CFM_VERBS.keys())
def test_unreadable_cfm_file_exits_2(verb, fig_file, tmp_path, capsys):
    # a missing file and a directory, as a missing MSC file is reported
    for path in (str(tmp_path / "nope.json"), str(tmp_path)):
        assert dispatch([a.format(cfm=path, msc=fig_file) for a in verb]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err


def test_flags_only_where_read(fig_file, tmp_path):
    ann_path = tmp_path / "ann.json"
    assert dispatch(["gossip", "annotate", fig_file, "--out", str(ann_path)]) == 0
    assert dispatch(["gossip", "check", str(ann_path), "--budget", "5"]) == 2
    assert dispatch(["tl", "eval", fig_file, "--formula", "a", "--seed", "1"]) == 2
    assert dispatch(["cfm", "accepts"]) == 2


def test_path_queries(fig_file, capsys):
    assert dispatch(["path", "last", fig_file, "--path", "msg(p,q) ->*",
                     "--event", "f5"]) == 0
    assert capsys.readouterr().out.strip() == "e4"
    assert dispatch(["path", "first", fig_file, "--path", "->* msg(p,r)",
                     "--event", "e2"]) == 0
    assert capsys.readouterr().out.strip() == "g2"
    assert dispatch(["path", "fpair", fig_file, "--path", "msg(p,q) ->*",
                     "--path2", "->+ msg(p,r) ->* msg(r,q) ->*",
                     "--event", "f1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "f3"
    assert dispatch(["path", "eval", fig_file, "--path", "[b] -> [b] msg(p,q)",
                     "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pairs"] == [["e3", "f5"]]
    assert dispatch(["path", "compare", fig_file, "--event", "f0",
                     "--path", "msg(p,q) ->*",
                     "--path", "msg(p,r) ->* msg(r,q) ->*", "--json"]) == 0
    leq = json.loads(capsys.readouterr().out)["leq"]
    # the two-hop path is strictly below the direct one at f0
    assert len(leq) == 3
    assert dispatch(["path", "last", fig_file, "--path", "msg(p,zz)",
                     "--event", "f5"]) == 2
    capsys.readouterr()
    for verb in ("last", "compare"):
        assert dispatch(["path", verb, fig_file, "--path=->", "--event", "zz"]) == 2
        assert capsys.readouterr().err == "error: unknown event 'zz'\n"


def test_path_compare_refuses_paths_from_two_sources(tmp_path, capsys):
    # →* ends at f3 from q, the message path from p: no source is common
    m = Msc(SIG2, [("e1", "p", "a"), ("e2", "p", "a"), ("f1", "q", "a"),
                   ("f2", "q", "a"), ("f3", "q", "a")], [("e1", "f3")])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(msc_to_json(m)))
    assert dispatch(["path", "compare", str(path), "--event", "f3",
                     "--path=->*", "--path=->* msg(p,q) ->*"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "share no source process" in out.err


@pytest.mark.parametrize("spelled", [
    ["--path", "->"],
    ["--path", "->", "--path2", "->*"],
    ["--path", "->* msg(p,q) ->*", "--path2", "->+ msg(p,q)"],
])
def test_path_values_may_start_with_a_dash(fig_file, capsys, spelled):
    # "--path ->" reads like "--path=->", though "->" starts like an option
    glued = [f"{a}={b}" for a, b in zip(spelled[::2], spelled[1::2])]
    verb = "fpair" if "--path2" in spelled else "eval"
    event = ["--event", "f1"] if verb == "fpair" else []
    outputs = []
    for args in (spelled, glued):
        assert dispatch(["path", verb, fig_file, *args, *event]) == 0
        outputs.append(capsys.readouterr().out)
    # after "--" every argument is left alone, and the file can follow it
    assert dispatch(["path", verb, *spelled, *event, "--", fig_file]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] != ""
    # a trailing "--path" still lacks its value
    assert dispatch(["path", "eval", fig_file, "--path"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_cfm_run_and_accepts(tmp_path, capsys):
    c = chain_cfm()
    cfm_path = tmp_path / "c.json"
    cfm_path.write_text(json.dumps(cfm_to_json(c)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(msc_to_json(
        Msc(c.signature, [("e0", "p", "a"), ("e1", "p", "b")], []))))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(msc_to_json(
        Msc(c.signature, [("e0", "p", "b"), ("e1", "p", "b")], []))))
    assert dispatch(["cfm", "run", str(cfm_path), str(good), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["outcome"] == "accepted" and "run" in rep
    assert dispatch(["cfm", "run", str(cfm_path), str(bad)]) == 1
    assert dispatch(["cfm", "run", str(cfm_path), str(good), "--budget", "1"]) == 3


def test_cfm_run_json_counts_nodes_within_budget(tmp_path, capsys):
    c = chain_cfm()
    cfm_path = tmp_path / "c.json"
    cfm_path.write_text(json.dumps(cfm_to_json(c)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(msc_to_json(
        Msc(c.signature, [("e0", "p", "a"), ("e1", "p", "b")], []))))
    capsys.readouterr()
    assert dispatch(["cfm", "run", str(cfm_path), str(good), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    # three nodes (before e0, before e1, the end); e0 and e1 each step once;
    # an explicit machine's acceptance is global, so no move is pruned
    assert (stats["visited"], stats["steps"], stats["pruned"]) == (3, 2, 0)
    assert dispatch(["cfm", "run", str(cfm_path), str(good), "--budget", "2",
                     "--json"]) == 3
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["visited"] == 2


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_exits_2(budget, tmp_path, capsys):
    c = chain_cfm()
    cfm_path = tmp_path / "c.json"
    cfm_path.write_text(json.dumps(cfm_to_json(c)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(msc_to_json(Msc(c.signature, [("e0", "p", "b")], []))))
    capsys.readouterr()
    assert dispatch(["cfm", "run", str(cfm_path), str(good), "--budget", budget]) == 2
    assert "budget must be at least 1" in capsys.readouterr().err
    assert dispatch(["impossible", "refute", "--budget", budget]) == 2
    assert "budget must be at least 1" in capsys.readouterr().err


def test_cfm_det_mirror_product(tmp_path, capsys):
    c = chain_cfm()
    cfm_path = tmp_path / "c.json"
    cfm_path.write_text(json.dumps(cfm_to_json(c)))
    assert dispatch(["cfm", "det", str(cfm_path)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "mirror.json"
    assert dispatch(["cfm", "mirror", str(cfm_path), "--out", str(out_path)]) == 0
    assert "machines" in json.loads(out_path.read_text())
    assert dispatch(["cfm", "product", str(cfm_path), str(cfm_path), "--json"]) == 0
    assert "machines" in json.loads(capsys.readouterr().out)


def test_gossip_annotate_check_mutation(fig_file, tmp_path, capsys):
    ann_path = tmp_path / "ann.json"
    assert dispatch(["gossip", "annotate", fig_file, "--out", str(ann_path)]) == 0
    obj = json.loads(ann_path.read_text())
    assert dispatch(["gossip", "check", str(ann_path)]) == 0
    # claim label b for the latest p-event at f5 (its true label is a)
    for rec in obj["events"]:
        if rec["id"] == "f5":
            assert rec["annot"][0] == "a"
            rec["annot"][0] = "b"
    mut_path = tmp_path / "mut.json"
    mut_path.write_text(json.dumps(obj))
    assert dispatch(["gossip", "check", str(mut_path)]) == 1


def test_gossip_check_names_the_first_wrong_event(fig_file, tmp_path, capsys):
    # a rejection names the first wrong event along linearize, the process
    # of its first wrong component, and that component's expected and
    # claimed values; the accepted output is unchanged
    ann_path = tmp_path / "ann.json"
    assert dispatch(["gossip", "annotate", fig_file, "--out", str(ann_path)]) == 0
    obj = json.loads(ann_path.read_text())
    capsys.readouterr()
    assert dispatch(["gossip", "check", str(ann_path)]) == 0
    assert capsys.readouterr().out == "accepted\n"
    assert dispatch(["gossip", "check", str(ann_path), "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "accepted": true\n}\n'
    # two wrong events, each wrong in its q and r components
    order = linearize(fig_flipped())
    early = order[len(order) // 3]
    expected = oracle_gossip_annotation(fig_flipped()).annot[early][1]
    claimed = "b" if expected != "b" else None
    for rec in obj["events"]:
        if rec["id"] in (early, order[-1]):
            rec["annot"][1] = "b" if rec["annot"][1] != "b" else None
            rec["annot"][2] = "b" if rec["annot"][2] != "b" else None
    mut_path = tmp_path / "mut.json"
    mut_path.write_text(json.dumps(obj))
    assert dispatch(["gossip", "check", str(mut_path)]) == 1
    assert capsys.readouterr().out == (
        f"rejected: event {early}, process q: "
        f"expected {json.dumps(expected)}, claimed {json.dumps(claimed)}\n"
    )
    assert dispatch(["gossip", "check", str(mut_path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "accepted": False, "event": early, "process": "q",
        "expected": expected, "claimed": claimed,
    }


@pytest.mark.parametrize(
    "annot",
    [["a"], "a", 1, [["a"], None], {"p": "a"}, ["a", "z"], [None, None, None]],
    ids=["one-entry", "letter", "number", "nested", "object", "unknown-letter", "three"],
)
def test_gossip_check_rejects_a_non_gossip_annotation(annot, tmp_path, capsys):
    # a gossip annotation is a list of one letter or null per process
    m = Msc(SIG2, [("e", "p", "a"), ("f", "q", "b")], [("e", "f")])
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(msc_to_json(m, {"e": [None, None], "f": ["a", None]})))
    assert dispatch(["gossip", "check", str(path)]) == 0
    path.write_text(json.dumps(msc_to_json(m, {"e": [None, None], "f": annot})))
    assert dispatch(["gossip", "check", str(path)]) == 2
    assert "'f'" in capsys.readouterr().err


def test_gossip_build_reports_states(fig_file, capsys):
    assert dispatch(["gossip", "build", fig_file, "--report-states", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["processes"] == ["p", "q", "r"]
    assert rep["reachable"]["total"] >= 3


def test_gossip_build_rejects_mixed_signatures(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(msc_to_json(
        Msc(SIG2, [("e", "p", "a"), ("f", "q", "b")], [("e", "f")])
    )))
    sig3 = SystemSignature(("x", "y", "z"), ("a", "b"))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(msc_to_json(
        Msc(sig3, [("e", "x", "a"), ("f", "z", "b")], [("e", "f")])
    )))
    capsys.readouterr()
    assert dispatch(["gossip", "build", str(a), str(b), "--report-states"]) == 2
    assert str(b) in capsys.readouterr().err


FAMILY_ARGV = ["impossible", "family", "--n", "1", "--k", "0"]


FAMILY_JSON = msc_to_json(build_family_msc(FamilyParams(1, 0)))


def test_main_exits_with_the_verb_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mscgossip", *FAMILY_ARGV])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == FAMILY_JSON


@pytest.mark.parametrize("module", ["mscgossip", "mscgossip.cli"])
def test_the_package_and_its_cli_module_run_as_scripts(module, monkeypatch, capsys):
    # in process, as ``python -m MODULE``; the cli module is imported
    # already, which runpy warns about
    monkeypatch.setattr(sys, "argv", [module, *FAMILY_ARGV])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module(module, run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == FAMILY_JSON


def run_module(*args, hash_seed="0", module="mscgossip"):
    """``python -m MODULE ARGS`` in a fresh interpreter, without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_cfm_mirror_output_is_independent_of_hash_seed(tmp_path):
    path = tmp_path / "mod3.json"
    path.write_text(json.dumps(cfm_to_json(CLAIMANTS["mod3"])))
    outputs = []
    for seed in ("1", "3"):
        proc = run_module("cfm", "mirror", str(path), hash_seed=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# runs each command of argv[1] through dispatch and prints their exit codes
# and outputs as one JSON list
_DISPATCH_ALL = """
import contextlib, io, json, sys
from mscgossip.cli import dispatch
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        out.append((dispatch(argv), buf.getvalue()))
print(json.dumps(out))
"""


def test_cli_output_is_independent_of_hash_seed(fig_file, tmp_path):
    # nine commands, each in a fresh interpreter per PYTHONHASHSEED 0-4,
    # print the same bytes; only cfm run's wall time may differ
    m = fig_flipped()
    annot = oracle_gossip_annotation(m).annot
    ann, wrong = tmp_path / "ann.json", tmp_path / "wrong.json"
    ann.write_text(json.dumps(msc_to_json(m, annot)))
    e = linearize(m)[5]
    annot[e] = ["b" if annot[e][0] != "b" else None, *annot[e][1:]]
    wrong.write_text(json.dumps(msc_to_json(m, annot)))
    c = chain_cfm()
    cfm_path, good = tmp_path / "c.json", tmp_path / "good.json"
    cfm_path.write_text(json.dumps(cfm_to_json(c)))
    good.write_text(json.dumps(msc_to_json(
        Msc(c.signature, [("e0", "p", "a"), ("e1", "p", "b")], []))))
    commands = [
        ["gossip", "check", str(ann)],
        ["gossip", "check", str(wrong), "--json"],
        ["gossip", "build", fig_file, "--report-states", "--json"],
        ["cfm", "run", str(cfm_path), str(good), "--json"],
        ["tl", "check", fig_file, "--formula", "a S b", "--json"],
        ["tl", "compile", fig_file, "--formula", "@q S a"],
        ["impossible", "refute", "--json"],
        ["path", "compare", fig_file, "--event", "f3", "--json",
         "--path", "msg(p,q) ->*", "--path", "->* msg(p,r) ->* msg(r,q) ->*"],
        ["corpus", "gen", "--seed", "1", "--count", "3", "--procs", "3"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _DISPATCH_ALL, json.dumps(commands)],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in range(5)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        results = json.loads(out)
        run = json.loads(results[3][1])
        del run["stats"]["wall_time"]
        results[3][1] = run
        outputs.append(results)
    assert [code for code, _ in outputs[0]] == [0, 1, 0, 0, 0, 0, 1, 0, 0]
    assert all(out == outputs[0] for out in outputs[1:])


def test_module_entry_point_exits_2_on_a_malformed_cfm(tmp_path):
    obj = cfm_to_json(CLAIMANTS["echo"])
    obj["machines"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    proc = run_module("cfm", "det", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "must be" in proc.stderr


def test_cli_module_entry_point_exits_2_on_a_malformed_cfm(tmp_path):
    obj = cfm_to_json(CLAIMANTS["echo"])
    obj["machines"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    proc = run_module("cfm", "det", str(path), module="mscgossip.cli")
    assert proc.returncode == 2, proc.stderr
    assert "must be" in proc.stderr


def test_impossible_family_and_refute(tmp_path, capsys):
    out = tmp_path / "family.json"
    assert dispatch(["impossible", "family", "--n", "5", "--k", "2",
                     "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["events"]) == 30
    assert dispatch(["impossible", "family", "--n", "2", "--k", "5"]) == 2
    assert dispatch(["impossible", "refute", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "accepts-wrong" and "counterexample" in rep
    # a search cut short by the budget gives no verdict
    assert dispatch(["impossible", "refute", "--budget", "10"]) == 3
    assert "budget" in capsys.readouterr().err


def test_tl_commands(fig_file, capsys):
    assert dispatch(["tl", "eval", fig_file, "--formula", "@q", "--json"]) == 0
    vals = json.loads(capsys.readouterr().out)["values"]
    assert vals["f0"] is True and vals["e0"] is False
    assert dispatch(["tl", "expand", "--formula", "X_p a"]) == 0
    assert "U" in capsys.readouterr().out
    assert dispatch(["tl", "compile", fig_file, "--formula", "a", "--json"]) == 0
    bits = json.loads(capsys.readouterr().out)["bits"]
    assert bits["e2"] == 1 and bits["e0"] == 0
    assert dispatch(["tl", "check", fig_file, "--formula", "!@p | b"]) == 0
    assert dispatch(["tl", "eval", fig_file, "--formula", "a U"]) == 2


@pytest.mark.parametrize("verb", ["eval", "check"])
@pytest.mark.parametrize("excess", [1, 500])
def test_tl_formula_beyond_the_depth_bound_is_an_input_error(verb, excess, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(msc_to_json(Msc(SIG2, [("e1", "p", "a")], []))))
    deep = MAX_DEPTH + excess
    for text in ("(" * deep + "a" + ")" * deep, "!" * (deep - 1) + "a"):
        assert dispatch(["tl", verb, str(path), "--formula", text]) == 2
        assert f"formula nests deeper than {MAX_DEPTH} levels" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["@zz S a", "X_zz a"])
def test_tl_formula_on_an_unknown_process_is_an_input_error(text, tmp_path, capsys):
    path = tmp_path / "two.json"
    m = Msc(SIG2, [("e1", "p", "a"), ("f1", "q", "b")], [("e1", "f1")])
    path.write_text(json.dumps(msc_to_json(m)))
    for verb in ("eval", "check"):
        assert dispatch(["tl", verb, str(path), "--formula", text]) == 2
        assert "unknown process 'zz'" in capsys.readouterr().err


def test_tl_expand_refuses_an_expansion_beyond_the_depth_bound(capsys):
    assert dispatch(["tl", "expand", "--formula", "O_p " * 12 + "a"]) == 2
    assert "once expanded" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check", "compile", "expand"])
@pytest.mark.parametrize("text", ["O_p " * 12 + "a", "X_p " * 40 + "a"])
def test_tl_verbs_refuse_an_expansion_beyond_the_depth_bound_alike(verb, text, tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(msc_to_json(Msc(SIG2, [("e1", "p", "a")], []))))
    argv = ["tl", verb] + ([] if verb == "expand" else [str(path)]) + ["--formula", text]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == (
        f"error: formula nests deeper than {MAX_DEPTH} levels once expanded\n"
    )


def test_corpus_gen_cli(tmp_path):
    out = tmp_path / "corpus.json"
    assert dispatch(["corpus", "gen", "--seed", "3", "--count", "4",
                     "--procs", "2", "--max-events", "3", "--out", str(out)]) == 0
    mscs = json.loads(out.read_text())["mscs"]
    assert len(mscs) == 4
    from mscgossip.msc import msc_from_json

    assert all(is_valid(msc_from_json(o)) for o in mscs)


def test_corpus_gen_refuses_more_letters_than_it_has(tmp_path, capsys):
    # the alphabet is the 26 lower-case letters; 27 or more was cut to 26
    out = tmp_path / "corpus.json"
    argv = ["corpus", "gen", "--count", "1", "--out", str(out), "--letters"]
    assert dispatch([*argv, "26"]) == 0
    assert dispatch([*argv, "30"]) == 2
    assert capsys.readouterr().err == "error: alphabet_size must be at most 26\n"


# -- round trips the frontend relies on ---------------------------------------


def test_roundtrips():
    for text in ["msg(p,q) ->*", "[a] -> ->* msg(q,p) [b]", "eps"]:
        assert format_path(parse_path(text)) == format_path(
            parse_path(format_path(parse_path(text)))
        )
    for text in ["a S b", "!( @p | b )"]:
        assert parse_tl(format_tl(parse_tl(text))) == parse_tl(text)
