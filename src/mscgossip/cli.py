"""Command-line frontend.

Subcommands cover MSC inspection, path-expression queries, CFM execution,
the gossip machine, the determinism refuter, temporal-logic tooling, and
seeded corpus generation.  Exit codes: 0 success/accept, 1 reject/refuted,
2 input error, 3 budget exhausted.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .cfm import (
    BudgetExhausted,
    Cfm,
    CfmError,
    DEFAULT_BUDGET,
    Run,
    cfm_from_json,
    cfm_to_json,
    find_accepting_run,
    is_deterministic,
    mirror_cfm,
    product,
)
from .constructions import (
    build_gossip_cfm,
    gossip_first_wrong,
    oracle_gossip_annotation,
    reachable_state_report,
)
from .corpus import random_corpus
from .impossibility import (
    FamilyParams,
    build_family_msc,
    naive_gossip_cfm,
    refute_deterministic,
)
from .msc import (
    ExtendedMsc,
    Msc,
    MscError,
    SystemSignature,
    export_dot,
    extended_msc_from_json,
    msc_from_json,
    msc_to_json,
    validate_msc,
)
from .paths import PathError, f_pair, first, last, eval_path, parse_path, preorder_at
from .tl import TlError, check_translation, compile_tl, eval_tl, expand_checked, format_tl, parse_tl

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class RunReport:
    """Machine-readable outcome of a run search."""

    outcome: str  # 'accepted' | 'rejected' | 'budget-exhausted'
    run: Optional[Run]
    stats: dict

    def __post_init__(self):
        if (self.run is not None) != (self.outcome == "accepted"):
            raise ValueError("run must be present exactly when accepted")

    def to_json(self) -> dict:
        obj = {"outcome": self.outcome, "stats": self.stats}
        if self.run is not None:
            obj["run"] = {
                "start": list(self.run.start),
                "assignment": {
                    e: [t.proc, repr(t.source), t.kind, repr(t.label), repr(t.target)]
                    for e, t in self.run.assignment.items()
                },
            }
        return obj


def search_with_report(machine, m: Msc, budget: int = DEFAULT_BUDGET) -> RunReport:
    stats: dict = {}
    t0 = time.perf_counter()
    try:
        run = find_accepting_run(machine, m, budget=budget, stats=stats)
        outcome = "accepted" if run is not None else "rejected"
    except BudgetExhausted:
        run, outcome = None, "budget-exhausted"
    stats["wall_time"] = time.perf_counter() - t0
    if run is not None:
        stats["reachable_structured_states"] = len(
            set(run.start)
            | {s for t in run.assignment.values() for s in (t.source, t.target)}
        )
    return RunReport(outcome, run, stats)


@dataclass
class CorpusSpec:
    seed: int
    count: int
    max_events_per_proc: int
    process_count: int
    alphabet_size: int

    LETTERS = "abcdefghijklmnopqrstuvwxyz"

    def __post_init__(self):
        if min(self.count, self.max_events_per_proc, self.process_count, self.alphabet_size) < 1:
            raise ValueError("all CorpusSpec sizes must be positive")
        if self.alphabet_size > len(self.LETTERS):
            raise ValueError(f"alphabet_size must be at most {len(self.LETTERS)}")

    def signature(self) -> SystemSignature:
        procs = tuple(f"p{i}" for i in range(1, self.process_count + 1))
        return SystemSignature(procs, tuple(self.LETTERS[: self.alphabet_size]))


def generate_corpus(spec: CorpusSpec) -> list[Msc]:
    """Deterministic pseudorandom corpus; every output is a valid MSC."""
    return random_corpus(
        spec.signature(), spec.count, spec.seed, spec.max_events_per_proc
    )


# -- plumbing -----------------------------------------------------------------


class _CliError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _checked(m: Msc, path: str) -> Msc:
    issues = validate_msc(m)
    if issues:
        raise _CliError(f"invalid MSC {path}: {issues[0]}")
    return m


def _cfm(path: str) -> Cfm:
    return cfm_from_json(_load_json(path))


def _msc(path: str) -> Msc:
    return _checked(msc_from_json(_load_json(path)), path)


def _extended_msc(path: str) -> ExtendedMsc:
    """An MSC whose every event carries a gossip annotation: a list (JSON has
    no tuples) of one letter or null per process, returned as a tuple."""
    ext = extended_msc_from_json(_load_json(path))
    sig = _checked(ext.base, path).signature
    for e, v in ext.annot.items():
        if not isinstance(v, list) or len(v) != len(sig.processes) or any(
            x is not None and x not in sig.alphabet for x in v
        ):
            raise _CliError(
                f"{path}: annotation of {e!r} is {v!r}, not a letter or null per process"
            )
    return ExtendedMsc(ext.base, {e: tuple(v) for e, v in ext.annot.items()})


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2, default=str) if args.json else text)


def _write_or_print(args, obj: dict) -> None:
    text = json.dumps(obj, indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommand handlers --------------------------------------------------------


def _cmd_msc_validate(args) -> int:
    issues = validate_msc(msc_from_json(_load_json(args.file)))
    _emit(args, {"valid": not issues, "issues": issues},
          "valid" if not issues else "\n".join(issues))
    return EXIT_OK if not issues else EXIT_REJECT


def _cmd_msc_dot(args) -> int:
    obj = _load_json(args.file)
    m = msc_from_json(obj)
    annot = None
    if any("annot" in r for r in obj["events"]):
        annot = extended_msc_from_json(obj).annot
    print(export_dot(m, annot))
    return EXIT_OK


def _cmd_path_eval(args) -> int:
    m = _msc(args.file)
    pairs = sorted(eval_path(m, parse_path(args.path, m.signature)))
    _emit(args, {"pairs": [list(p) for p in pairs]},
          "\n".join(f"{a} {b}" for a, b in pairs))
    return EXIT_OK


def _event_query(args, fn) -> int:
    m = _msc(args.file)
    if args.event not in m.index:
        raise _CliError(f"unknown event {args.event!r}")
    value = fn(m)
    _emit(args, {"value": str(value)}, str(value))
    return EXIT_OK


def _cmd_path_last(args) -> int:
    return _event_query(
        args, lambda m: last(m, parse_path(args.path, m.signature), args.event)
    )


def _cmd_path_first(args) -> int:
    return _event_query(
        args, lambda m: first(m, parse_path(args.path, m.signature), args.event)
    )


def _cmd_path_fpair(args) -> int:
    return _event_query(
        args,
        lambda m: f_pair(
            m,
            parse_path(args.path, m.signature),
            parse_path(args.path2, m.signature),
            args.event,
        ),
    )


def _cmd_path_compare(args) -> int:
    m = _msc(args.file)
    if args.event not in m.index:
        raise _CliError(f"unknown event {args.event!r}")
    paths = tuple(parse_path(t, m.signature) for t in args.path)
    pre = preorder_at(m, paths, args.event)
    rows = []
    for pi in paths:
        for pi2 in paths:
            rel = "<=" if (pi, pi2) in pre.leq else "!<="
            rows.append(f"{pi} {rel} {pi2}")
    _emit(args, {"leq": [[str(a), str(b)] for a, b in sorted(pre.leq, key=str)]},
          "\n".join(rows))
    return EXIT_OK


def _cmd_cfm_run(args) -> int:
    report = search_with_report(_cfm(args.cfm), _msc(args.msc), args.budget)
    _emit(args, report.to_json(), report.outcome)
    return {"accepted": EXIT_OK, "rejected": EXIT_REJECT}.get(report.outcome, EXIT_BUDGET)


def _cmd_cfm_det(args) -> int:
    det = is_deterministic(_cfm(args.cfm))
    _emit(args, {"deterministic": det}, "deterministic" if det else "nondeterministic")
    return EXIT_OK if det else EXIT_REJECT


def _cmd_cfm_mirror(args) -> int:
    _write_or_print(args, cfm_to_json(mirror_cfm(_cfm(args.cfm))))
    return EXIT_OK


def _cmd_cfm_product(args) -> int:
    _write_or_print(args, cfm_to_json(product(_cfm(args.cfm), _cfm(args.cfm2))))
    return EXIT_OK


def _cmd_gossip_annotate(args) -> int:
    m = _msc(args.file)
    ext = oracle_gossip_annotation(m)
    _write_or_print(args, msc_to_json(m, {e: list(v) for e, v in ext.annot.items()}))
    return EXIT_OK


def _cmd_gossip_check(args) -> int:
    """A rejection names the first wrong event along linearize, the process
    of its first wrong component, and that component's expected and
    claimed values."""
    ext = _extended_msc(args.file)
    wrong = gossip_first_wrong(ext)
    if wrong is None:
        _emit(args, {"accepted": True}, "accepted")
        return EXIT_OK
    e, expected = wrong
    claimed = ext.annot[e]
    i = next(i for i, (x, y) in enumerate(zip(expected, claimed)) if x != y)
    p, want, got = ext.base.signature.processes[i], expected[i], claimed[i]
    _emit(
        args,
        {"accepted": False, "event": e, "process": p, "expected": want, "claimed": got},
        f"rejected: event {e}, process {p}: "
        f"expected {json.dumps(want)}, claimed {json.dumps(got)}",
    )
    return EXIT_REJECT


def _cmd_gossip_build(args) -> int:
    mscs = [_msc(path) for path in args.files]
    for path, m in zip(args.files, mscs):
        if m.signature != mscs[0].signature:
            raise _CliError(f"{path}: signature differs from {args.files[0]}")
    machine = build_gossip_cfm(mscs[0].signature)
    payload: dict = {"processes": list(mscs[0].signature.processes)}
    if args.report_states:
        payload["reachable"] = reachable_state_report(machine, mscs)
    _emit(args, payload, json.dumps(payload))
    return EXIT_OK


def _cmd_impossible_family(args) -> int:
    m = build_family_msc(FamilyParams(args.n, args.k))
    _write_or_print(args, msc_to_json(m))
    return EXIT_OK


def _cmd_impossible_refute(args) -> int:
    claimant = _cfm(args.cfm) if args.cfm else naive_gossip_cfm()
    res = refute_deterministic(claimant, budget=args.budget)
    payload = {"verdict": res.verdict, "detail": res.detail}
    if res.counterexample is not None:
        payload["counterexample"] = msc_to_json(res.counterexample)
    _emit(args, payload, f"{res.verdict}: {res.detail}")
    return EXIT_REJECT if res.refuted else EXIT_OK


def _cmd_tl_eval(args) -> int:
    m = _msc(args.file)
    vals = eval_tl(m, parse_tl(args.formula))
    _emit(args, {"values": vals},
          "\n".join(f"{e} {str(vals[e]).lower()}" for e in m.events))
    return EXIT_OK


def _cmd_tl_expand(args) -> int:
    text = format_tl(expand_checked(parse_tl(args.formula)))
    _emit(args, {"formula": text}, text)
    return EXIT_OK


def _cmd_tl_compile(args) -> int:
    m = _msc(args.file)
    machine = compile_tl(parse_tl(args.formula), m.signature)
    bits = machine.annotate(m)
    _emit(args, {"bits": bits}, "\n".join(f"{e} {bits[e]}" for e in m.events))
    return EXIT_OK


def _cmd_tl_check(args) -> int:
    m = _msc(args.file)
    ok, diffs = check_translation(parse_tl(args.formula), m)
    _emit(args, {"ok": ok, "diffs": diffs}, "ok" if ok else "\n".join(diffs))
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_corpus_gen(args) -> int:
    spec = CorpusSpec(args.seed, args.count, args.max_events, args.procs, args.letters)
    corpus = generate_corpus(spec)
    _write_or_print(args, {"mscs": [msc_to_json(m) for m in corpus]})
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _budget(text: str) -> int:
    """A node budget: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    budget = {"--budget": {"type": _budget, "default": DEFAULT_BUDGET}}

    top = argparse.ArgumentParser(prog="mscgossip", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, **spec):
        p = group.add_parser(name, parents=[common])
        for arg, kw in spec.items():
            p.add_argument(arg if arg.startswith("-") else arg, **kw)
        p.set_defaults(handler=handler)
        return p

    msc = sub.add_parser("msc").add_subparsers(dest="sub", required=True)
    leaf(msc, "validate", _cmd_msc_validate, file={})
    leaf(msc, "dot", _cmd_msc_dot, file={})

    path = sub.add_parser("path").add_subparsers(dest="sub", required=True)
    leaf(path, "eval", _cmd_path_eval, file={}, **{"--path": {"required": True}})
    leaf(path, "last", _cmd_path_last, file={},
         **{"--path": {"required": True}, "--event": {"required": True}})
    leaf(path, "first", _cmd_path_first, file={},
         **{"--path": {"required": True}, "--event": {"required": True}})
    leaf(path, "fpair", _cmd_path_fpair, file={},
         **{"--path": {"required": True}, "--path2": {"required": True},
            "--event": {"required": True}})
    leaf(path, "compare", _cmd_path_compare, file={},
         **{"--path": {"action": "append", "required": True},
            "--event": {"required": True}})

    cfm = sub.add_parser("cfm").add_subparsers(dest="sub", required=True)
    leaf(cfm, "run", _cmd_cfm_run, cfm={}, msc={}, **budget)
    leaf(cfm, "det", _cmd_cfm_det, cfm={})
    leaf(cfm, "mirror", _cmd_cfm_mirror, cfm={}, **{"--out": {}})
    leaf(cfm, "product", _cmd_cfm_product, cfm={}, cfm2={}, **{"--out": {}})

    gossip = sub.add_parser("gossip").add_subparsers(dest="sub", required=True)
    leaf(gossip, "annotate", _cmd_gossip_annotate, file={}, **{"--out": {}})
    leaf(gossip, "check", _cmd_gossip_check, file={})
    leaf(gossip, "build", _cmd_gossip_build,
         files={"nargs": "+"}, **{"--report-states": {"action": "store_true"}})

    imp = sub.add_parser("impossible").add_subparsers(dest="sub", required=True)
    leaf(imp, "family", _cmd_impossible_family,
         **{"--n": {"type": int, "required": True},
            "--k": {"type": int, "required": True}, "--out": {}})
    leaf(imp, "refute", _cmd_impossible_refute, cfm={"nargs": "?"}, **budget)

    tl = sub.add_parser("tl").add_subparsers(dest="sub", required=True)
    leaf(tl, "eval", _cmd_tl_eval, file={}, **{"--formula": {"required": True}})
    leaf(tl, "expand", _cmd_tl_expand, **{"--formula": {"required": True}})
    leaf(tl, "compile", _cmd_tl_compile, file={}, **{"--formula": {"required": True}})
    leaf(tl, "check", _cmd_tl_check, file={}, **{"--formula": {"required": True}})

    corpus = sub.add_parser("corpus").add_subparsers(dest="sub", required=True)
    leaf(corpus, "gen", _cmd_corpus_gen,
         **{"--seed": {"type": int, "default": 0},
            "--count": {"type": int, "default": 10},
            "--procs": {"type": int, "default": 2},
            "--letters": {"type": int, "default": 2},
            "--max-events": {"type": int, "default": 4, "dest": "max_events"},
            "--out": {}})

    return top


# options whose value is a path expression, which often starts with "-"
_PATH_OPTIONS = ("--path", "--path2")


def _glued_path_values(argv: list[str]) -> list[str]:
    """argv with each ``--path VALUE`` spelled ``--path=VALUE``, so that
    argparse reads a value such as ``->`` as the option's argument and not
    as an option of its own; nothing after ``--`` changes."""
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            out.append(arg)
            out.extend(rest)
        elif arg in _PATH_OPTIONS and (value := next(rest, None)) is not None:
            out.append(f"{arg}={value}")
        else:
            out.append(arg)
    return out


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glued_path_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except BudgetExhausted:
        print("budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    except (MscError, PathError, CfmError, TlError, _CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
