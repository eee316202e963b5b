"""Walk a family of crossed systems and compare the predicted center of
each product with the brute-force computation.

Covers skew group rings (nontrivial sigma, trivial alpha), twisted group
rings (trivial sigma, nontrivial alpha), and plain group rings.
"""

import argparse

from gradix.algebra import (is_associative, multiply, nucleus_and_center,
                            subfield_check)
from gradix.catalog import (field_algebra, octonions, product_algebra,
                            quadratic_field_extension, quaternions,
                            swap_matrix, truncated_dual)
from gradix.crossed import (build_crossed_product, crossed_center, is_G_simple,
                            trivial_system, validate_crossed_system)
from gradix.fields import prime_field
from gradix.groups import cyclic, elementary_abelian_two
from gradix.linalg import identity_matrix


def systems(p):
    f = prime_field(p)
    ext = quadratic_field_extension(f)
    prod2 = product_algebra(f, 2)
    out = [
        ("ext x| Z2 (Galois)", validate_crossed_system(
            ext, cyclic(2), [identity_matrix(f, 2), ext.involution],
            [[ext.unit] * 2 for _ in range(2)])),
        ("FxF x| Z2 (swap)", validate_crossed_system(
            prod2, cyclic(2), [identity_matrix(f, 2), swap_matrix(f)],
            [[prod2.unit] * 2 for _ in range(2)])),
        ("dual numbers group ring", trivial_system(truncated_dual(f), cyclic(2))),
        ("quaternion group ring", trivial_system(quaternions(f)[0], cyclic(2))),
        ("octonion group ring", trivial_system(octonions(f)[0], cyclic(2))),
    ]
    # quaternions as a twisted group ring over (Z2)^2: read the 2-cocycle
    # signs straight off the structure constants
    qa = quaternions(f)[0]
    g4 = elementary_abelian_two(2)
    base = field_algebra(f)
    e = qa.basis_vector
    alpha = [[(multiply(qa, e(a), e(b))[g4.mul(a, b)],) for b in range(4)]
             for a in range(4)]
    out.append(("quaternion cocycle x| (Z2)^2", validate_crossed_system(
        base, g4, [identity_matrix(f, 1)] * 4, alpha)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3, help="field characteristic")
    args = ap.parse_args()

    print(f"{'system':<30} {'dim':>4} {'assoc':>6} {'Gsimple':>8} "
          f"{'Z rank':>7} {'match':>6} {'Z(T)^G field':>13}")
    for name, sys_ in systems(args.p):
        prod, grad = build_crossed_product(sys_)
        z, ztg = crossed_center(sys_)
        brute = nucleus_and_center(prod).center
        gs = is_G_simple(sys_)
        field_ok = subfield_check(sys_.algebra, ztg) if gs.simple else None
        print(f"{name:<30} {prod.dim:>4} {str(is_associative(prod)):>6} "
              f"{str(gs.simple):>8} {z.rank:>7} "
              f"{str(z.basis == brute.basis):>6} {str(field_ok):>13}")


if __name__ == "__main__":
    main()
