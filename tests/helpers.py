"""Constructions shared by several test modules: maps and algebras that
the library itself never needs."""

import itertools

from gradix.algebra import (fixed_equations, make_algebra, two_sided_inverse)
from gradix.errors import ValidationError
from gradix.linalg import kernel


def fixed_subspace(alg, maps):
    """Common fixed space of the linear maps."""
    return kernel(alg.field, fixed_equations(alg, maps), alg.dim)


def conjugation_matrix(alg, u):
    """Matrix of x -> (u x) u^{-1}; needs u two-sided invertible."""
    uinv = two_sided_inverse(alg, u)
    if uinv is None:
        raise ValidationError("conjugation by a non-invertible element")
    cols = [alg.multiply(alg.multiply(u, alg.basis_vector(j)), uinv)
            for j in range(alg.dim)]
    return tuple(tuple(cols[j][k] for j in range(alg.dim)) for k in range(alg.dim))


def tensor_algebra(a, b):
    """A (x) B on the basis a_i (x) b_j, ordered i-major."""
    f, db = a.field, b.dim
    entries = [(i1 * db + j1, i2 * db + j2, k1 * db + k2, f.mul(c1, c2))
               for i1, i2, k1, c1 in a.mult for j1, j2, k2, c2 in b.mult]
    unit = tuple(f.mul(x, y) for x in a.unit for y in b.unit)
    return make_algebra(f, a.dim * db, entries, unit)


def _has_factor(p, poly):
    """Whether X^n + sum_i poly[i] X^i has a monic factor of degree at most
    n / 2 over F_p, by trial division."""
    n = len(poly)
    for deg in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            rem = list(poly) + [1]
            for t in range(n, deg - 1, -1):
                c = rem[t]
                for s in range(deg):
                    rem[t - deg + s] = (rem[t - deg + s] - c * tail[s]) % p
                rem[t] = 0
            if not any(rem[:deg]):
                return True
    return False


def extension_field(f, n, rng):
    """F_{p^n} as F_p[X] / (q) on the basis 1, X, ..., X^{n-1}, for a random
    monic irreducible q of degree n."""
    p = f.p
    poly = [rng.randrange(p) for _ in range(n)]
    while _has_factor(p, poly):
        poly = [rng.randrange(p) for _ in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            v = [0] * (2 * n)
            v[i + j] = 1
            for t in range(2 * n - 1, n - 1, -1):   # X^t = -sum poly X^(t-n+s)
                c, v[t] = v[t], 0
                for s in range(n):
                    v[t - n + s] = (v[t - n + s] - c * poly[s]) % p
            entries += [(i, j, k, v[k]) for k in range(n) if v[k]]
    return make_algebra(f, n, entries, (1,) + (0,) * (n - 1))

