"""One workload's requests in a fresh interpreter: the closed loop itself.

Reads {"mode", "seconds", "warm", "rounds", "spans"} as JSON on stdin and
writes the results as JSON on stdout.  One client, one thread: each request
goes through jsonio.parse_request -> run_request -> render_report, the
calls the CLI makes, and the next starts only when it has returned.

mode "timed":  after the untimed warm-up, whole rounds run until `seconds`
               have passed; every latency and every rendered report is kept,
               with reference-loop samples (speed.py) taken in between.
mode "traced": every request of the rounds runs once plainly and once
               under the tracer; the difference is the tracing overhead.

Between requests the interpreter-wide function caches of gradix are
emptied, outside the timed region: a one-shot CLI call never finds them
warm, and two requests of a run may share a coefficient ring.
"""

from __future__ import annotations

import json
import resource
import sys
import time

sys.path.insert(0, "src")

import gradix  # noqa: E402
from gradix import jsonio  # noqa: E402
from gradix.errors import GradixError  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402


def _caches():
    found = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("gradix"):
            found += [f for f in vars(mod).values() if hasattr(f, "cache_clear")]
    return found


CACHES = _caches()


def one(text: str):
    """(seconds, rendered report or None, error or None) for one request."""
    start = time.perf_counter()
    try:
        out, err = jsonio.render_report(jsonio.run_request(jsonio.parse_request(text))), None
    except GradixError as e:
        out, err = None, f"{type(e).__name__}: {e}"
    except Exception as e:   # a crash is a failed request, not a failed run
        out, err = None, f"crash {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    for cache in CACHES:
        cache.cache_clear()
    return elapsed, out, err


def timed(job):
    for text in job["warm"]:
        one(text)
    latencies, starts, results, done = [], [], [], 0
    clock = speed.Clock()
    start = time.perf_counter()
    for rnd in job["rounds"]:
        if time.perf_counter() - start >= job["seconds"]:
            break
        done += 1
        for text in rnd:
            starts.append(time.perf_counter())
            elapsed, out, err = one(text)
            latencies.append(elapsed)
            results.append({"report": out, "error": err})
            clock.maybe_sample()
    wall = time.perf_counter() - start
    clock.sample()
    return {"wall_s": wall, "rounds": done, "latencies": latencies,
            "starts": starts, "samples": clock.samples, "results": results}


def traced(job):
    """Each request runs plainly, then under the tracer, so the machine's
    drift in speed cancels out of the overhead."""
    for text in job["warm"]:
        one(text)
    tracer = spans.Tracer()
    plain, latencies, results = 0.0, [], []
    for i, text in enumerate(t for rnd in job["rounds"] for t in rnd):
        plain += one(text)[0]
        tracer.request = i
        tracer.install()
        try:
            elapsed, out, err = one(text)
        finally:
            tracer.uninstall()
        latencies.append(elapsed)
        results.append({"report": out, "error": err})
    tracer.write(job["spans"])
    return {"latencies": latencies, "results": results,
            "layers": tracer.summarize(), "overhead": sum(latencies) / plain - 1}


def main() -> int:
    job = json.load(sys.stdin)
    out = timed(job) if job["mode"] == "timed" else traced(job)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["gradix"] = gradix.__version__
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
