"""Command line interface.

Exit codes: 0 on success, 1 for malformed or invalid input, 2 when a decision
procedure refuses to run (enumeration budget, unbounded search, no exact mode
over the rationals).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import jsonio, selftest
from .errors import (BudgetExceeded, ExactModeUnavailable, UnboundedSearch,
                     ValidationError)

REFUSALS = (BudgetExceeded, UnboundedSearch, ExactModeUnavailable)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="request document (path or - for stdin)")
    sub.add_argument("--budget", type=int, default=None,
                     help="enumeration cap on projective points (default 1000000)")
    sub.add_argument("--trials", type=int, default=None,
                     help="randomized-mode sample count (default 1000)")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for randomized modes (default 0)")
    sub.add_argument("--pretty", action="store_true",
                     help="human-readable output instead of JSON")
    sub.add_argument("--timing", action="store_true",
                     help="attach wall-clock milliseconds to the report")


def _apply_flags(doc: dict, args) -> dict:
    flags = {k: getattr(args, k) for k in ("budget", "trials", "seed", "window")
             if getattr(args, k, None) is not None}
    doc["options"] = jsonio.merge_options({**doc["options"], **flags})
    return doc


def _parse_window(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            out.append([int(lo), int(hi)])
        except ValueError:
            raise ValidationError(f"bad window part {part!r}, expected lo:hi")
    return out


def _emit(doc: dict, args, started: float) -> None:
    timing = (time.perf_counter() - started) * 1000 if args.timing else None
    if args.pretty:
        if timing is not None:
            doc = dict(doc)
            doc["timing_ms"] = round(timing, 3)
        print(jsonio.render_pretty(doc))
    else:
        print(jsonio.render_report(doc, timing))


def _fail(exc: Exception, args) -> int:
    code = 2 if isinstance(exc, REFUSALS) else 1
    body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if getattr(args, "pretty", False):
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
    else:
        print(json.dumps(body, sort_keys=True))
    return code


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    try:
        doc = _apply_flags(jsonio.parse_request(_read_input(args.input)), args)
        _emit(jsonio.run_request(doc), args, started)
    except (ValidationError, *REFUSALS) as e:
        return _fail(e, args)
    return 0


def cmd_verdict(args) -> int:
    started = time.perf_counter()
    try:
        doc = _apply_flags(jsonio.parse_request(_read_input(args.input)), args)
        _emit(jsonio.verdict_only(jsonio.run_request(doc)), args, started)
    except (ValidationError, *REFUSALS) as e:
        return _fail(e, args)
    return 0


def cmd_tower(args) -> int:
    started = time.perf_counter()
    try:
        doc = _apply_flags(
            jsonio.wrap_bare_payload(_read_input(args.input), "cayley-tower"),
            args)
        _emit(jsonio.run_request(doc), args, started)
    except (ValidationError, *REFUSALS) as e:
        return _fail(e, args)
    return 0


def cmd_laurent(args) -> int:
    started = time.perf_counter()
    try:
        if args.window is not None:
            args.window = _parse_window(args.window)
        doc = _apply_flags(
            jsonio.wrap_bare_payload(_read_input(args.input), "laurent"), args)
        _emit(jsonio.run_request(doc), args, started)
    except (ValidationError, *REFUSALS) as e:
        return _fail(e, args)
    return 0


def cmd_selftest(args) -> int:
    for name in ("trials", "oracle_maxlen"):
        if getattr(args, name) <= 0:
            return _fail(ValidationError(f"option {name} must be positive"), args)
    failures = selftest.run(trials=args.trials, seed=args.seed,
                            oracle_maxlen=args.oracle_maxlen)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradix",
        description="simplicity and center analysis for graded algebras")
    subs = p.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="full structural report for a request")
    _add_common(a)
    a.set_defaults(fn=cmd_analyze)

    v = subs.add_parser("verdict", help="decision content only")
    _add_common(v)
    v.set_defaults(fn=cmd_verdict)

    t = subs.add_parser("tower", help="iterated doubling from a field")
    _add_common(t)
    t.set_defaults(fn=cmd_tower)

    l = subs.add_parser("laurent", help="skew Laurent simplicity and center")
    _add_common(l)
    l.add_argument("--window", default=None,
                   help="center slice box, lo:hi per variable comma separated")
    l.set_defaults(fn=cmd_laurent)

    s = subs.add_parser("selftest", help="run the built-in property battery")
    s.add_argument("--trials", type=int, default=25)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--oracle-maxlen", type=int, default=5, dest="oracle_maxlen")
    s.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
