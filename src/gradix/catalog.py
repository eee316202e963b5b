"""Stock algebras, groups, and automorphisms used across tests and the CLI.

Everything here is assembled from the public constructors; the point is a
single place for the standard instances (matrix algebras, group algebras,
quadratic extensions, the doubling tower stages) with fixed bases and labels.
"""

from __future__ import annotations

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
    """The least c >= 2 that is not a square mod p, by Euler's criterion:
    for odd p, c is a non-square exactly when c^((p-1)/2) = -1."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
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
