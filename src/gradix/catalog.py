"""Stock algebras, groups, and automorphisms used across tests and the CLI.

Everything here is assembled from the public constructors; the point is a
single place for the standard instances (matrix algebras, group algebras,
quadratic extensions, the doubling tower stages) with fixed bases and labels.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Algebra, make_algebra
from .cayley import tower_stages
from .errors import ValidationError
from .fields import FieldSpec
from .graded import Gradation, validate_gradation
from .groups import (FiniteGroup, cyclic, dihedral, direct_product,
                     elementary_abelian_two, symmetric, trivial_group)
from .linalg import identity_matrix


def field_algebra(field: FieldSpec) -> Algebra:
    return make_algebra(field, 1, [(0, 0, 0, field.one)], (field.one,),
                        involution=((field.one,),), labels=("1",))


def product_algebra(field: FieldSpec, n: int) -> Algebra:
    """F x ... x F with coordinatewise product."""
    entries = [(i, i, i, field.one) for i in range(n)]
    return make_algebra(field, n, entries, (field.one,) * n,
                        labels=tuple(f"e{i + 1}" for i in range(n)))


def swap_matrix(field: FieldSpec):
    return ((field.zero, field.one), (field.one, field.zero))


def product_with_swap(field: FieldSpec) -> Algebra:
    """F x F carrying the coordinate swap as involution."""
    entries = [(0, 0, 0, field.one), (1, 1, 1, field.one)]
    return make_algebra(field, 2, entries, (field.one, field.one),
                        involution=swap_matrix(field), labels=("e1", "e2"))


def matrix_algebra(field: FieldSpec, n: int) -> Algebra:
    """M_n(F) on the basis e_{rc}, row-major."""
    entries = []
    for r in range(n):
        for c in range(n):
            for s in range(n):
                entries.append((r * n + c, c * n + s, r * n + s, field.one))
    unit = tuple(field.one if i % (n + 1) == 0 else field.zero
                 for i in range(n * n))
    labels = tuple(f"e{r + 1}{c + 1}" for r in range(n) for c in range(n))
    return make_algebra(field, n * n, entries, unit, labels=labels)


def upper_triangular(field: FieldSpec, n: int) -> Algebra:
    """T_n(F), the upper-triangular n x n matrices on the e_{rc}, r <= c,
    row-major: not simple (the strictly upper part is an ideal), though its
    center is F."""
    idx = [(r, c) for r in range(n) for c in range(r, n)]
    pos = {rc: i for i, rc in enumerate(idx)}
    entries = [(pos[r, c], pos[c, s], pos[r, s], field.one)
               for r, c in idx for s in range(c, n)]
    unit = tuple(field.one if r == c else field.zero for r, c in idx)
    labels = tuple(f"e{r + 1}{c + 1}" for r, c in idx)
    return make_algebra(field, len(idx), entries, unit, labels=labels)


def group_algebra(field: FieldSpec, group: FiniteGroup) -> tuple[Algebra, Gradation]:
    """F[G] with its canonical G-gradation deg(u_g) = g."""
    entries = [(a, b, group.mul(a, b), field.one)
               for a in group.elements() for b in group.elements()]
    unit = tuple(field.one if a == group.identity else field.zero
                 for a in group.elements())
    labels = tuple("1" if a == group.identity else f"u{group.label(a)}"
                   for a in group.elements())
    alg = make_algebra(field, group.order, entries, unit, labels=labels)
    return alg, validate_gradation(alg, group, tuple(group.elements()))


def truncated_dual(field: FieldSpec) -> Algebra:
    """F[x]/(x^2) with the trivial involution."""
    entries = [(0, 0, 0, field.one), (0, 1, 1, field.one), (1, 0, 1, field.one)]
    return make_algebra(field, 2, entries, (field.one, field.zero),
                        involution=identity_matrix(field, 2), labels=("1", "x"))


def _first_nonsquare(p: int) -> int:
    squares = {(a * a) % p for a in range(1, p)}
    for c in range(2, p):
        if c not in squares:
            return c
    raise ValidationError(f"every element of F_{p} is a square")


def quadratic_field_extension(field: FieldSpec) -> Algebra:
    """The degree-2 field extension F[x]/(q) with the conjugation x -> x^p
    attached as involution.  q = x^2+x+1 for p = 2, else x^2 - c with c the
    first non-square."""
    if not field.is_finite:
        raise ValidationError("quadratic extension table needs a prime field")
    one = field.one
    if field.p == 2:
        entries = [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
                   (1, 1, 0, one), (1, 1, 1, one)]
    else:
        c = field.coerce(_first_nonsquare(field.p))
        entries = [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (1, 1, 0, c)]
    return make_algebra(field, 2, entries, (one, field.zero),
                        involution=frobenius_matrix(field), labels=("1", "x"))


def frobenius_matrix(field: FieldSpec):
    """Matrix of y -> y^p on the basis (1, x) of quadratic_field_extension."""
    if field.p == 2:
        return ((field.one, field.one), (field.zero, field.one))
    # x^p = x (x^2)^((p-1)/2) = c^((p-1)/2) x = -x for non-square c
    return ((field.one, field.zero), (field.zero, field.neg(field.one)))


def quaternions(field: FieldSpec) -> tuple[Algebra, Gradation]:
    *_, last = tower_stages(field, [-1, -1])
    return last


def octonions(field: FieldSpec) -> tuple[Algebra, Gradation]:
    *_, last = tower_stages(field, [-1, -1, -1])
    return last


def sedenions(field: FieldSpec) -> tuple[Algebra, Gradation]:
    *_, last = tower_stages(field, [-1, -1, -1, -1])
    return last


def random_unital_algebra(field: FieldSpec, dim: int,
                          rng: random.Random) -> Algebra:
    """Basis vector 0 is the unit; the remaining products are uniform (over
    Q, fractions with numerators -3..3 and denominators 1..5)."""
    def scalar():
        if field.is_finite:
            return rng.randrange(field.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 5))

    entries = []
    for j in range(1, dim):
        entries.append((0, j, j, field.one))
        entries.append((j, 0, j, field.one))
    entries.append((0, 0, 0, field.one))
    for i in range(1, dim):
        for j in range(1, dim):
            for k in range(dim):
                c = scalar()
                if c:
                    entries.append((i, j, k, c))
    unit = (field.one,) + (field.zero,) * (dim - 1)
    return make_algebra(field, dim, entries, unit)


def random_graded_algebra(field: FieldSpec, group: FiniteGroup, degrees,
                          rng: random.Random) -> tuple[Algebra, Gradation]:
    """Basis vector 0 is the unit and degrees[0] the identity; every other
    product e_i e_j is uniform over the component of degree deg_i deg_j
    (F_p only)."""
    d = len(degrees)
    entries = [(0, 0, 0, field.one)]
    for j in range(1, d):
        entries += [(0, j, j, field.one), (j, 0, j, field.one)]
    for i in range(1, d):
        for j in range(1, d):
            gh = group.mul(degrees[i], degrees[j])
            entries += [(i, j, k, rng.randrange(field.p))
                        for k in range(d) if degrees[k] == gh]
    alg = make_algebra(field, d, entries, (field.one,) + (field.zero,) * (d - 1))
    return alg, validate_gradation(alg, group, degrees)


# -- named groups ----------------------------------------------------------------

def named_group(name: str) -> FiniteGroup:
    """Compositional references: C<n>, D<n>, S<n>, E<k> ((Z/2)^k), "1",
    joined by "x" for direct products."""
    def atom(tok: str) -> FiniteGroup:
        if tok == "1":
            return trivial_group()
        kind, rest = tok[:1], tok[1:]
        if not rest.isdigit():
            raise ValidationError(f"unknown group reference: {tok!r}")
        n = int(rest)
        if kind == "C":
            return cyclic(n)
        if kind == "D":
            return dihedral(n)
        if kind == "S":
            return symmetric(n)
        if kind == "E":
            return elementary_abelian_two(n)
        raise ValidationError(f"unknown group reference: {tok!r}")

    parts = [atom(tok) for tok in name.split("x")]
    out = parts[0]
    for g in parts[1:]:
        out = direct_product(out, g)
    return out
