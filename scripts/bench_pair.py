"""Parent and change medians of the committed benchmark, on one machine.

    python3 scripts/bench_pair.py --label L --rev REV [--pairs crossed=10 ...]
                                  [--seed 1]

Run from the root of a gradix checkout.  REV is the parent to compare the
working tree with; it has no default, since HEAD is the change itself once
that is committed.  The rev is extracted with
`git archive | tar -x` into a temporary directory, removed afterwards.  A
pair is one run of the unchanged `perfbench/run.py --trace 0` there (the
parent) and one in the working tree (the change), one run at a time; the
side that goes first alternates from pair to pair, so a drift of the host
falls on both.  A run that failed a request, or whose answers are not all
correct, is refused.  The output is BENCH_<label>.json: the machine line,
the rev, the pairs, and per workload each end-to-end metric of
BENCHMARK.json, its median and its run values on each side, with the
parent's quartiles and the number of pairs the change won (better in the
metric's `better` direction, ties lost).  Every run lasts the
`run_seconds` of BENCHMARK.json; by default every workload runs 10 pairs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def run_harness(cwd: str, workload: str, seed: int, seconds: float):
    """(machine line, result object) of one benchmark run in cwd."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return next(x for x in lines if x.startswith("machine ")), json.loads(lines[-1])


def compare(dirs: dict, plan: dict, better: dict, seed: int, seconds: float,
            run=run_harness) -> tuple[str, dict]:
    """The machine line and, per workload of plan ({workload: pairs}), the
    median and run values of each metric of better ({metric: "higher" or
    "lower"}) on each side of dirs, the parent's quartiles and the pairs
    the change won."""
    names = list(better)
    machines, out = set(), {}
    for workload, pairs in plan.items():
        values = {side: {n: [] for n in names} for side in SIDES}
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                machine, result = run(dirs[side], workload, seed, seconds)
                if result.get("correct") is not True or result.get("failed") != 0:
                    raise SystemExit(
                        f"bench_pair: refused a {side} {workload} run: correct="
                        f"{result.get('correct')!r}, failed={result.get('failed')!r}")
                machines.add(machine)
                print(f"{workload} pair {i + 1} {side}: " + " ".join(
                    f"{n}={result['metrics'][n]['value']:.6g}" for n in names),
                    file=sys.stderr)
                for n in names:
                    values[side][n].append(result["metrics"][n]["value"])
        out[workload] = {side: {n: {"median": statistics.median(v), "runs": v}
                                for n, v in values[side].items()} for side in SIDES}
        for n in names:
            parent, change = values["parent"][n], values["change"][n]
            out[workload]["parent"][n]["quartiles"] = quartiles(parent)
            out[workload]["change"][n]["pairs_won"] = sum(
                (c > p) if better[n] == "higher" else (c < p)
                for p, c in zip(parent, change))
    if len(machines) != 1:
        raise SystemExit(f"bench_pair: runs report {len(machines)} machine lines")
    return machines.pop(), out


def quartiles(v: list) -> list:
    """[Q1, Q3] of the runs, by the inclusive method; one run is both."""
    if len(v) < 2:
        return v * 2
    q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return [q1, q3]


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rev", required=True)
    ap.add_argument("--pairs", nargs="*", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    plan = ({w: int(n) for w, n in (x.split("=") for x in args.pairs)} or
            {w["name"]: 10 for w in bench["workloads"]})
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", args.rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as parent:
        archive = subprocess.run(["git", "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        machine, workloads = compare({"parent": parent, "change": "."}, plan,
                                     better, args.seed, bench["run_seconds"])
    doc = {"machine": machine, "rev": rev, "seed": args.seed,
           "seconds": bench["run_seconds"], "pairs": plan, "workloads": workloads}
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
