"""Seconds per request kind of a benchmark workload, replayed in this process.

    python scripts/replay_kinds.py [--workload W] [--seeds 1 11] [--rounds N] [--passes K]
                                   [--by-dim]

The requests are those of scripts/report_digests.py: perfbench/gen.py builds
each seed's warm-up requests and N rounds, as the benchmark does.  A pass
runs each seed's warm-up requests untimed, then parses, runs and renders
every request of its rounds, adding the time of each to the request's kind.
The output is one JSON object {kind: seconds}, each kind's total the
minimum over the K passes.  Two checkouts compared this way show which
kind of request a change moved, which the end-to-end figures of
perfbench/run.py, one mix of kinds, do not.  With --by-dim, an algebra
request counts under its kind and dimension ("algebra d=5"), which tells
apart the size classes of the rationals workload.
"""

import argparse
import json
import sys
import time

import report_digests as digests


def kind_of(text: str, by_dim: bool) -> str:
    doc = json.loads(text)
    if by_dim and "dim" in doc["payload"]:
        return f"{doc['kind']} d={doc['payload']['dim']}"
    return doc["kind"]


def replay(workload: str, seeds, rounds: int, passes: int,
           by_dim: bool = False) -> dict:
    requests = [digests.gen.generate(workload, seed, str(digests.ROOT), rounds)
                for seed in seeds]
    best: dict = {}
    for _ in range(passes):
        totals: dict = {}
        for warm, timed in requests:
            for text in warm:
                digests.rendered(text)
            for text in (t for rnd in timed for t in rnd):
                kind = kind_of(text, by_dim)
                start = time.perf_counter()
                digests.rendered(text)
                totals[kind] = totals.get(kind, 0.0) + time.perf_counter() - start
        for kind, seconds in totals.items():
            best[kind] = min(best.get(kind, seconds), seconds)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=digests.gen.WORKLOADS,
                    default="small_mixed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    ap.add_argument("--rounds", type=int, default=150)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--by-dim", action="store_true",
                    help="split algebra requests by dimension")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        ap.error("--rounds and --passes take a positive count")
    best = replay(args.workload, args.seeds, args.rounds, args.passes,
                  args.by_dim)
    print(json.dumps({k: round(v, 4) for k, v in sorted(best.items())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
