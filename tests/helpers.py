"""Constructions, references and patches shared by several test modules,
which the library itself never needs."""

import itertools

from gradix.algebra import (fixed_equations, make_algebra, two_sided_inverse)
from gradix.errors import NotNormal, ValidationError
from gradix.groups import validate_group
from gradix.linalg import Subspace, kernel, projective_walk


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



def is_normal(n):
    """Whether the subgroup n is closed under conjugation in its group."""
    g = n.group
    return all(g.conj(a, h) in n for a in n.members for h in g.elements())


def quotient_group(g, n):
    """G/N plus the projection map; N must be normal."""
    if n.group is not g and n.group != g:
        raise ValidationError("subgroup belongs to a different group")
    if not is_normal(n):
        raise NotNormal(f"subgroup {n.members} is not normal")
    coset_of = {}
    reps = []  # cosets ordered by minimal member
    for a in g.elements():
        if a in coset_of:
            continue
        idx = len(reps)
        reps.append(a)
        for h in n.members:
            coset_of[g.mul(a, h)] = idx
    proj = tuple(coset_of[a] for a in g.elements())
    table = tuple(tuple(proj[g.mul(reps[i], reps[j])] for j in range(len(reps)))
                  for i in range(len(reps)))
    labels = None
    if g.labels:
        labels = tuple("{" + ",".join(g.label(a) for a in sorted(g.elements())
                                      if proj[a] == i) + "}"
                       for i in range(len(reps)))
    return validate_group(table, identity=proj[g.identity], labels=labels), proj


def points(space):
    """The projective points of one subspace, in `projective_walk` order."""
    return projective_walk([space], 10 ** 6, "projective points")[1]


def homogeneous_points(alg, grad, g):
    """The projective points of R_g, in the order of the graded sweep."""
    return points(Subspace.span(alg.field, alg.dim,
                                [alg.basis_vector(i) for i in grad.indices_of(g)]))


def walk_without_points(walk):
    """`projective_walk` that counts and refuses as before, but fails the
    test at its first point."""
    def counted(spaces, budget, what):
        total, points = walk(spaces, budget, what)

        def refuse():
            for _ in points:
                raise AssertionError(f"visited one of the {what}")
            yield from ()
        return total, refuse()
    return counted


def mu_square_by_vectors(alg, center, mu):
    """Whether v^2 = mu.1 for some v of `center`, over all p^r vectors v:
    the oracle of `cayley.mu_square_in_center` over F_p."""
    f = alg.field
    target = alg.scalar_vec(f.coerce(mu))
    for coeffs in itertools.product(range(f.p), repeat=center.rank):
        v = alg.scalar_vec(0)
        for c, row in zip(coeffs, center.basis):
            if c:
                v = alg.add_vec(v, alg.scale(c, row))
        if alg.multiply(v, v) == target:
            return True
    return False
