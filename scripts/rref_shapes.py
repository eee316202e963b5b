"""Calls and seconds of `linalg.np_rref` per shape class of a benchmark workload.

    python scripts/rref_shapes.py [--workload W] [--seeds 1 11] [--rounds N]
                                  [--passes K]

The requests are those of scripts/replay_kinds.py: perfbench/gen.py builds
each seed's warm-up requests and N rounds, as the benchmark does.  Every
request is run once in this process with `np_rref` wrapped, which records
a copy of each input as it was passed, list or array.  An input's shape
class is the side of np_rref's selection on p ("rows" while a product of
two residues, (p - 1)^2, fits in one CPython digit, "array" past it, and
"Q" over the rationals), and its nonzero rows (mod p over F_p), its width
and its rank, each bucketed to a power
of two ("4-7").  Each pass then eliminates the recorded inputs again, class
by class, and a class's seconds are the least of its K passes.  The output
is one table line per class and a total line, which sums the classes'
seconds.  Two checkouts compared this way show which sizes of system a
change to np_rref moved, which neither the benchmark's end-to-end figures
nor its one np_rref span tell apart.
"""

import argparse
import sys
import time

import numpy as np

import report_digests as digests
from gradix import linalg


def bucket(k: int) -> str:
    """k itself below 2, else the power-of-two range holding it."""
    if k < 2:
        return str(k)
    low = 1 << (k.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


def shape_class(a, p: int | None, rank: int) -> tuple:
    """(side, nonzero rows, width, rank), the three counts bucketed; the
    side of a system over Q (p None) is "Q"."""
    rows = linalg.np_mod(np.array(a, dtype=object), p)
    if p is None:
        side = "Q"
    else:
        side = "rows" if (p - 1) ** 2 < 2 ** sys.int_info.bits_per_digit else "array"
    return (side, bucket(int(rows.any(axis=1).sum())), bucket(rows.shape[1]),
            bucket(rank))


def record(workload: str, seeds, rounds: int) -> dict:
    """{(side, rows, width, rank): [(input, p), ...]} over every np_rref
    call of the workload's requests."""
    np_rref, calls = linalg.np_rref, []

    def recording(a, p):
        out = np_rref(a, p)
        copy = a.copy() if isinstance(a, np.ndarray) else [list(r) for r in a]
        calls.append((copy, p, len(out[1])))
        return out
    linalg.np_rref = recording
    try:
        for seed in seeds:
            warm, timed = digests.gen.generate(workload, seed,
                                               str(digests.ROOT), rounds)
            for text in list(warm) + [t for rnd in timed for t in rnd]:
                digests.rendered(text)
    finally:
        linalg.np_rref = np_rref
    classes: dict = {}
    for a, p, rank in calls:
        classes.setdefault(shape_class(a, p, rank), []).append((a, p))
    return classes


def time_classes(classes: dict, passes: int) -> dict:
    """{class: least seconds over the passes to eliminate its inputs}."""
    best: dict = {}
    for _ in range(passes):
        for key, inputs in classes.items():
            start = time.perf_counter()
            for a, p in inputs:
                linalg.np_rref(a, p)
            seconds = time.perf_counter() - start
            best[key] = min(best.get(key, seconds), seconds)
    return best


def order(key: tuple) -> tuple:
    return (key[0],) + tuple(int(b.split("-")[0]) for b in key[1:])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=digests.gen.WORKLOADS,
                    default="small_mixed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        ap.error("--rounds and --passes take a positive count")
    classes = record(args.workload, args.seeds, args.rounds)
    best = time_classes(classes, args.passes)
    line = "{:<6} {:>9} {:>7} {:>7} {:>7} {:>10}"
    print(line.format("side", "rows", "width", "rank", "calls", "seconds"))
    for key in sorted(classes, key=order):
        print(line.format(*key, len(classes[key]), f"{best[key]:.6f}"))
    print(line.format("total", "", "", "", sum(map(len, classes.values())),
                      f"{sum(best.values()):.6f}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
