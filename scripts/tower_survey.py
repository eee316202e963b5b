"""Survey Cayley doubling towers over small prime fields.

For each mu sequence we build the tower, print the per-stage verdicts of
the doubling criterion, and cross-check against brute-force simplicity
wherever the stage is small enough to enumerate.
"""

import argparse
import itertools

from gradix.algebra import is_simple
from gradix.cayley import tower
from gradix.fields import prime_field


def survey(p, length, brute_limit):
    f = prime_field(p)
    nonzero = list(range(1, p))
    print(f"tower survey over F_{p}, mu sequences of length {length}")
    print(f"{'mus':<16} {'dims':<14} {'criterion':<22} brute")
    for mus in itertools.product(nonzero, repeat=length):
        stages = tower(f, [f.coerce(m) for m in mus])
        dims = [s.algebra.dim for s in stages]
        crit = []
        brute = []
        for s in stages[1:]:
            crit.append("S" if s.report.criterion_simple else "-")
            if s.algebra.dim <= brute_limit:
                v = is_simple(s.algebra)
                brute.append("S" if v.simple else "-")
                assert v.simple == s.report.criterion_simple, (mus, s.algebra.dim)
            else:
                brute.append("?")
        print(f"{str(list(mus)):<16} {str(dims):<14} "
              f"{' '.join(crit):<22} {' '.join(brute)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3, help="field characteristic")
    ap.add_argument("--length", type=int, default=3,
                    help="number of doubling steps")
    ap.add_argument("--brute-limit", type=int, default=8,
                    help="max dim for the exact cross-check")
    args = ap.parse_args()
    survey(args.p, args.length, args.brute_limit)


if __name__ == "__main__":
    main()
