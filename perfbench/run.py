"""gradix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload towers --seed 1 --seconds 20 --trace 0

Run from the root of a gradix checkout.  The requests are generated from
the seed (gen.py) and checked for repeats and for work past gradix's
default budget before anything is timed.  A fresh interpreter (worker.py)
then runs them in a closed loop, one client and one thread, and the
answers are checked afterwards (check.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed set of
rounds once plainly and once under the span tracer (spans.py) and prints
the per-layer metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Everything written goes to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"

# numpy's thread pools pinned to one thread; a fixed hash seed keeps set
# iteration, and with it every traced count, the same from run to run
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# rounds generated per second of --seconds: about four times what gradix
# completed when the benchmark was written, so a faster gradix still finds
# new requests
ROUNDS_PER_S = {"towers": 1, "crossed": 2, "small_mixed": 50, "rationals": 2}

# rounds in the traced set, a few seconds of work
TRACE_ROUNDS = {"towers": 1, "crossed": 2, "small_mixed": 60, "rationals": 2}

SETUP_RUNS = 5
SETUP_SAMPLE = "sample_requests/group_algebra_z2.json"
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from gradix.cli import main; "
              f"sys.exit(main(['analyze', '{SETUP_SAMPLE}']))")

WORKER_TIMEOUT_S = 150


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "threads": ENV,
            "platform": platform.platform()}


def tail(latencies):
    """(percentile, value): the highest percentile with at least ten
    requests beyond it, nearest rank; the minimum when there are ten or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return 0, s[0]
    pct = math.floor(100 * (n - 10) / n)
    return pct, s[max(1, math.ceil(pct * n / 100)) - 1]


def setup_seconds(env, check, speed):
    """Wall times of fresh interpreters that each run the CLI's analyze on a
    sample request, their speed scales, and what was wrong with their
    answers; the first run, which may compile bytecode, is not timed."""
    with open(SETUP_SAMPLE, encoding="utf-8") as fh:
        doc = json.load(fh)
    times, starts, wrong = [], [], []
    clock = speed.Clock()
    for i in range(SETUP_RUNS + 1):
        clock.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        try:
            wrong += check.problems(doc, json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError):
            wrong.append(f"CLI exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if i:
            times.append(elapsed)
            starts.append(start)
    clock.sample()
    return times, speed.scales(clock.samples, list(zip(starts, times))), wrong


def run_worker(job, env):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def grade(texts, results, check):
    """Failed requests: raised, refused, or answered wrongly."""
    failures = []
    for text, res in zip(texts, results):
        if res["error"] is not None:
            failures.append((text, [res["error"]]))
            continue
        try:
            wrong = check.problems(json.loads(text), json.loads(res["report"]))
        except (KeyError, TypeError) as e:    # a decision field went missing
            wrong = [f"report without {e!r}"]
        if wrong:
            failures.append((text, wrong))
    return failures


def line(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile("src/gradix/__init__.py") and os.path.isdir("sample_requests")):
        print("perfbench: run from the root of a gradix checkout "
              "(src/gradix and sample_requests/ are missing here)", file=sys.stderr)
        return 2
    sys.path[:0] = ["src", HERE]
    import check
    import gen
    import spans
    import speed

    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: workload must be one of {', '.join(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cap = math.ceil(args.seconds * ROUNDS_PER_S[args.workload])
    warm, rounds = gen.generate(args.workload, args.seed, ".", cap)
    if args.trace:
        texts = list(dict.fromkeys(gen.probe(".") + [t for r in rounds[:TRACE_ROUNDS[
            args.workload]] for t in r]))
        rounds = [texts]
        warm = [t for t in warm if t not in set(texts)]
    all_texts = warm + [t for r in rounds for t in r]
    if len(set(all_texts)) != len(all_texts):
        print("perfbench: generator produced a repeated request", file=sys.stderr)
        return 1
    over = [t for t in all_texts if gen.points_needed(json.loads(t)) > gen.DEFAULT_BUDGET]
    if over:
        print(f"perfbench: {len(over)} requests exceed the default budget", file=sys.stderr)
        return 1

    env = dict(os.environ, **ENV)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{OUT_DIR}/{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine()
    setup, setup_scales, setup_wrong = (([], [], []) if args.trace
                                        else setup_seconds(env, check, speed))
    job = {"mode": "traced" if args.trace else "timed", "seconds": args.seconds,
           "warm": warm, "rounds": rounds, "spans": f"{stem}.spans.json.gz"}
    out = run_worker(job, env)
    done = [t for r in rounds for t in r][:len(out["results"])]
    failures = grade(done, out["results"], check)
    attempted, failed = len(done), len(failures)
    if setup_wrong:      # the set-up runs answer a request too
        failures.append((f"set-up: analyze {SETUP_SAMPLE}", setup_wrong))
        attempted, failed = attempted + 1, failed + 1

    print(f"gradix benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine  nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']} threads=" + ",".join(f"{k}={v}" for k, v in ENV.items()))
    for text, wrong in failures[:5]:
        print(f"FAILED  {text[:160]}\n        {wrong}", file=sys.stderr)

    if args.trace:
        metrics = spans.layer_metrics(out["layers"], out["overhead"])
        print(f"traced set: {attempted} requests (fixed probe + {TRACE_ROUNDS[args.workload]}"
              f" rounds), spans in {job['spans']}")
        for name, m in metrics.items():
            line(name, m["value"], m["unit"])
    else:
        raw = out["latencies"]
        scale = speed.scales(out["samples"], list(zip(out["starts"], raw)))
        lat = [t * s for t, s in zip(raw, scale)]
        pct, tail_s = tail(lat)
        ok = attempted - failed
        metrics = {
            "requests_per_s": {"value": ok / sum(lat), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "correct_frac": {"value": ok / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(
                t * s for t, s in zip(setup, setup_scales)), "unit": "s"},
        }
        print(f"closed loop, 1 client, 1 thread: {attempted} requests in "
              f"{out['rounds']} whole rounds, {out['wall_s']:.3f} s of wall time; "
              f"times below at reference speed, median scale "
              f"{statistics.median(scale):.4f} (raw: {ok / sum(raw):.6g} req/s, "
              f"p50 {statistics.median(raw):.6g} s, setup {statistics.median(setup):.6g} s)")
        line("requests_per_s", metrics["requests_per_s"]["value"], "1/s", f"n={attempted}")
        line("latency_p50_s", metrics["latency_p50_s"]["value"], "s", f"n={attempted}")
        line("latency_tail_s", tail_s, "s", f"p{pct}, n={attempted}, 10+ beyond")
        line("failed_frac", failed / attempted, "frac", f"{failed} of {attempted}")
        line("correct_frac", metrics["correct_frac"]["value"], "frac", f"n={attempted}")
        line("peak_rss_mb", out["peak_rss_mb"], "MB", "ru_maxrss of the worker")
        line("setup_s", metrics["setup_s"]["value"], "s",
             f"median of {len(setup)} fresh CLI runs")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": info, "result": result,
                   "setup_s": setup, "setup_scales": setup_scales,
                   "latencies": out["latencies"], "speed_samples": out.get("samples"),
                   "failures": failures[:50]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
