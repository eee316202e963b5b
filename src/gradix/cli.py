"""Command line interface.

Exit codes: 0 on success, 1 for malformed or invalid input, 2 when a decision
procedure refuses to run (enumeration budget, unbounded search, no exact mode
over the rationals) or the request needs more memory than can be allocated
(error type "MemoryError").
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import jsonio
from .errors import (BudgetExceeded, ExactModeUnavailable, UnboundedSearch,
                     ValidationError)

REFUSALS = (BudgetExceeded, UnboundedSearch, ExactModeUnavailable, MemoryError)


def _read_input(path: str) -> str:
    """The request text; an input that cannot be read as UTF-8 text is a
    ValidationError, so it gets the JSON error and exit code 1."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: "
                              f"{e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path} is not UTF-8 text: byte {e.start} "
                              f"({e.reason})") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="request document (path or - for stdin)")
    sub.add_argument("--budget", type=int, default=None,
                     help="enumeration cap on projective points and on the "
                     "powers of a Laurent automorphism (default 1000000)")
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
    doc["options"] = jsonio.merge_options(flags, doc["kind"], doc["options"],
                                          doc["payload"])
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
    # numpy's allocation failure is a private subclass of MemoryError
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    body = {"error": {"type": name, "message": str(exc)}}
    if args.pretty:
        print(f"error [{name}]: {exc}", file=sys.stderr)
    else:
        print(json.dumps(body, sort_keys=True))
    return code


# the bare payload kind of each subcommand that accepts one; analyze and
# verdict read full request documents only
BARE_KINDS = {"tower": "cayley-tower", "laurent": "laurent"}


def cmd_request(args) -> int:
    """analyze, verdict, tower and laurent.  Errors are reported in a fixed
    order: a malformed --window, then the request, then the other flags."""
    started = time.perf_counter()
    try:
        if getattr(args, "window", None) is not None:
            args.window = _parse_window(args.window)
        text = _read_input(args.input)
        kind = BARE_KINDS.get(args.command)
        doc = (jsonio.wrap_bare_payload(text, kind) if kind
               else jsonio.parse_request(text))
        report = jsonio.run_request(_apply_flags(doc, args))
        if args.command == "verdict":
            report = jsonio.verdict_only(report)
        _emit(report, args, started)
    except (ValidationError, *REFUSALS) as e:
        return _fail(e, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradix",
        description="simplicity and center analysis for graded algebras")
    subs = p.add_subparsers(dest="command", required=True)

    for name, text in (("analyze", "full structural report for a request"),
                       ("verdict", "decision content only"),
                       ("tower", "iterated doubling from a field"),
                       ("laurent", "skew Laurent simplicity and center")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.set_defaults(fn=cmd_request)
        if name == "laurent":
            sub.add_argument("--window", default=None, help="center slice "
                             "box, lo:hi per variable comma separated")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
