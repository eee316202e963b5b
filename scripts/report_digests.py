"""SHA-256 digests of the reports that gradix renders for the benchmark's
workloads.

    python scripts/report_digests.py [--seeds 1 11] [--rounds crossed=3 ...]

The requests of each workload are built by perfbench/gen.py from the seed,
the warm-up requests first and then the given number of rounds, exactly as
the benchmark builds them.  Each request is parsed, run and rendered in
this process, and one digest is taken over all the rendered reports of a
(workload, seed) in order, a refused request counting as the name and
message of its error.  The output is one JSON object,
{workload: {seed: {"requests": n, "sha256": hex}}}: two checkouts whose
outputs agree render every one of those reports byte for byte the same.
tests/golden/report_digests.json holds the output at the default
arguments, and tests/test_scripts.py compares the two.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True      # leave perfbench/ as it is

import gen  # noqa: E402
from gradix import jsonio  # noqa: E402
from gradix.errors import GradixError  # noqa: E402

# a few rounds of each workload, about 2.5 s of work in all
ROUNDS = {"towers": 3, "crossed": 3, "small_mixed": 6, "rationals": 3}


def rendered(text: str) -> str:
    """The rendered report of one request, or its error."""
    try:
        return jsonio.render_report(jsonio.run_request(jsonio.parse_request(text)))
    except GradixError as e:
        return f"{type(e).__name__}: {e}"


def digest(workload: str, seed: int, rounds: int) -> dict:
    warm, timed = gen.generate(workload, seed, str(ROOT), rounds)
    texts = list(warm) + [t for rnd in timed for t in rnd]
    sha = hashlib.sha256()
    for text in texts:
        sha.update(rendered(text).encode("utf-8") + b"\n")
    return {"requests": len(texts), "sha256": sha.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 11])
    ap.add_argument("--rounds", nargs="*", default=[], metavar="WORKLOAD=N",
                    help="rounds of a workload, overriding "
                    + ", ".join(f"{w}={n}" for w, n in ROUNDS.items()))
    args = ap.parse_args(argv)
    rounds = dict(ROUNDS)
    for item in args.rounds:
        name, _, n = item.partition("=")
        if name not in rounds or not (n.isascii() and n.isdigit()):
            ap.error(f"--rounds takes WORKLOAD=N with WORKLOAD one of "
                     f"{', '.join(rounds)}: {item!r}")
        rounds[name] = int(n)
    out = {w: {str(seed): digest(w, seed, n) for seed in args.seeds}
           for w, n in rounds.items()}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
