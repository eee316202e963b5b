"""Traced work counts are deterministic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import spans  # noqa: E402
from gradix import jsonio  # noqa: E402

COUNTS = ("calls", "rows_in", "rows_out", "points_checked")


def _counts(stats):
    return {(name, k): v for name, s in stats.items() for k, v in s.items() if k in COUNTS}


def _traced(text):
    tracer = spans.Tracer()
    tracer.install()
    try:
        jsonio.render_report(jsonio.run_request(jsonio.parse_request(text)))
    finally:
        tracer.uninstall()
    return tracer.summarize()


def test_group_algebra_counts_are_exact():
    with open(os.path.join(ROOT, "sample_requests/group_algebra_z2.json")) as fh:
        text = fh.read()
    first, second = _traced(text), _traced(text)
    assert _counts(first) == _counts(second)
    assert first["algebra.simple_under"]["points_checked"] == 6
    assert first["linalg.np_rref"]["calls"] == 57
    assert first["graded.is_graded_simple"]["points_checked"] == 4


def test_uninstall_restores_every_binding():
    from gradix import algebra, linalg
    before = (linalg.np_rref, algebra.kernel, linalg.Echelon.extend)
    tracer = spans.Tracer()
    tracer.install()
    assert linalg.np_rref is not before[0] and algebra.kernel is not before[1]
    tracer.uninstall()
    assert (linalg.np_rref, algebra.kernel, linalg.Echelon.extend) == before


def _bench_counts(seed):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_mixed",
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_two_traced_runs_repeat_their_counts():
    first, second = _bench_counts(3), _bench_counts(3)
    assert first == second
    assert first["algebra.simple_under.points_checked"] > 0
    assert first["linalg.np_rref.calls"] > 0
