"""Cayley-Dickson doubling of involutive algebras.

The double of (A, *) at an invertible scalar mu is A + Al with

    (a, b)(c, d) = (a c + mu d* b, d a + b c*),   (a, b)* = (a*, -b),

carrying the natural Z/2-gradation with A in degree 0.  Iterating from
the ground field produces the usual tower (complexification, quaternion,
octonion, sedenion stages) together with an accumulated (Z/2)^k-gradation.
`tower_stages` only builds the tower, so it works over Q and at any size;
`tower` also judges each double by the doubling criterion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Algebra, SimplicityVerdict, center_equations,
                      fixed_center, fixed_equations, is_simple, make_algebra,
                      right_mult_matrix, simple_under, subfield_check)
from .errors import MuZero, ValidationError
from .fields import FieldSpec, Scalar
from .graded import Gradation, validate_gradation
from .groups import cyclic, elementary_abelian_two
from .linalg import Subspace, identity_matrix, kernel, projective_count


def _require_involution(alg: Algebra) -> None:
    if alg.involution is None:
        raise ValidationError("doubling needs an involutive algebra")


def cayley_double(alg: Algebra, mu, adjoined: str = "l") -> tuple[Algebra, Gradation]:
    _require_involution(alg)
    f = alg.field
    mu = f.coerce(mu)
    if not mu:
        raise MuZero("doubling parameter is zero")
    d = alg.dim
    prod = alg.product_table
    star = [alg.star(alg.basis_vector(i)) for i in range(d)]

    entries = []
    for i in range(d):
        for j in range(d):
            for k, c in enumerate(prod[i][j]):            # a c
                if c:
                    entries.append((i, j, k, c))
            for k, c in enumerate(prod[j][i]):            # d a
                if c:
                    entries.append((i, d + j, d + k, c))
            for k, c in enumerate(alg.multiply(alg.basis_vector(i), star[j])):
                if c:
                    entries.append((d + i, j, d + k, c))  # b c*
            for k, c in enumerate(alg.multiply(star[j], alg.basis_vector(i))):
                if c:
                    entries.append((d + i, d + j, k, f.mul(mu, c)))  # mu d* b
    unit = tuple(alg.unit) + (f.zero,) * d
    invol = [[f.zero] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for j in range(d):
            invol[i][j] = alg.involution[i][j]
        invol[d + i][d + i] = f.neg(f.one)
    labels = None
    if alg.labels:
        labels = alg.labels + tuple(
            adjoined if s == "1" else s + adjoined for s in alg.labels)
    doubled = make_algebra(f, 2 * d, entries, unit, invol, labels)

    # sanity: l d l = mu d* for the adjoined unit l
    ell = doubled.element((f.zero,) * d + tuple(alg.unit))
    for i in range(d):
        lhs = doubled.multiply(doubled.multiply(ell, doubled.basis_vector(i)), ell)
        rhs = doubled.scale(mu, tuple(star[i]) + (f.zero,) * d)
        if lhs != rhs:
            raise ValidationError(f"doubling identity fails at basis {i}")

    return doubled, validate_gradation(doubled, cyclic(2), (0,) * d + (1,) * d)


# -- star ideals and centers ---------------------------------------------------

def is_star_simple(alg: Algebra, budget: int = 1_000_000) -> SimplicityVerdict:
    """No proper nonzero ideal closed under the involution."""
    _require_involution(alg)
    return simple_under(alg, maps=(alg.involution,), mode="exact", budget=budget)


def star_centers(alg: Algebra) -> tuple[Subspace, Subspace]:
    """Z_*, the symmetric central elements (the system of `fixed_center` at
    the involution), and Z_**, the kernel of that system plus the rows of
    every R_{b - b*}: the two pieces that assemble the center of a double."""
    _require_involution(alg)
    f, d = alg.field, alg.dim
    rows = center_equations(alg) + fixed_equations(alg, (alg.involution,))
    z_star = kernel(f, rows, d)
    for j in range(d):
        v = alg.sub_vec(alg.basis_vector(j), alg.star(alg.basis_vector(j)))
        rows.extend(right_mult_matrix(alg, v))
    return z_star, kernel(f, rows, d)


def mu_square_in_center(alg: Algebra, center: Subspace, mu,
                        budget: int = 1_000_000) -> bool | None:
    """Is mu.1 a square inside `center` = Z(A)?  Exact over F_p; over Q
    decided only for the scalar line (perfect-square test), otherwise None."""
    f = alg.field
    mu = f.coerce(mu)
    target = alg.scalar_vec(mu)
    if f.is_finite:
        if f.p ** center.rank > budget:
            return None
        import itertools
        for coeffs in itertools.product(range(f.p), repeat=center.rank):
            v = alg.zero_vec()
            for c, row in zip(coeffs, center.basis):
                if c:
                    v = alg.add_vec(v, alg.scale(c, row))
            if alg.multiply(v, v) == target:
                return True
        return False
    if center.rank == 1:
        q = Fraction(mu)
        if q < 0:
            return False
        num, den = q.numerator, q.denominator
        return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
    return None


# -- the doubling simplicity criterion ----------------------------------------

@dataclass(frozen=True)
class DoublingReport:
    star_simple: SimplicityVerdict
    involution_trivial: bool
    center_field: bool
    mu_square: bool | None
    symmetric_center_field: bool
    criterion_simple: bool | None
    brute_simple: bool | None       # None when the double is over budget
    brute_witness: tuple | None
    consistent: bool


def doubling_report(alg: Algebra, mu, doubled: Algebra,
                    budget: int = 1_000_000) -> DoublingReport:
    """Predict simplicity of the double `doubled` = C(alg, mu) from data of
    (A, *, mu) and, when the double is small enough, confront the prediction
    with brute enumeration."""
    _require_involution(alg)
    f = alg.field
    mu = f.coerce(mu)
    if not mu:
        raise MuZero("doubling parameter is zero")

    star_v = is_star_simple(alg, budget)
    trivial = alg.involution == identity_matrix(f, alg.dim)
    center = fixed_center(alg, ())
    zfield = subfield_check(alg, center, budget)
    musq = mu_square_in_center(alg, center, mu, budget)
    zsfield = subfield_check(alg, fixed_center(alg, (alg.involution,)), budget)

    if trivial:
        if musq is None:
            criterion = None
        else:
            criterion = star_v.simple and zfield and not musq
    else:
        criterion = star_v.simple and zsfield

    brute = witness = None
    if f.is_finite and projective_count(f.p, doubled.dim) <= budget:
        v = is_simple(doubled, mode="exact", budget=budget)
        brute, witness = v.simple, v.witness
    consistent = brute is None or criterion is None or brute == criterion
    return DoublingReport(star_v, trivial, zfield, musq, zsfield,
                          criterion, brute, witness, consistent)


# -- towers --------------------------------------------------------------------

@dataclass(frozen=True)
class TowerStage:
    algebra: Algebra
    gradation: Gradation     # accumulated (Z/2)^k grading
    mu: Scalar | None        # parameter used to reach this stage
    report: DoublingReport | None


def tower_stages(field: FieldSpec, mus) -> Iterator[tuple[Algebra, Gradation]]:
    """The ground field and its iterated doubles along the given parameters,
    each with its accumulated (Z/2)^k-gradation, built one at a time."""
    alg = make_algebra(field, 1, [(0, 0, 0, field.one)], (field.one,),
                       involution=((field.one,),), labels=("1",))
    grad = Gradation(elementary_abelian_two(0), (0,))
    yield alg, grad
    letters = "ijlmnpqr"
    for k, mu in enumerate(mus):
        letter = letters[k] if k < len(letters) else f"t{k}"
        alg, _ = cayley_double(alg, mu, adjoined=letter)
        degrees = tuple(grad.degrees) + tuple(d + (1 << k) for d in grad.degrees)
        grad = validate_gradation(alg, elementary_abelian_two(k + 1), degrees)
        yield alg, grad


def tower(field: FieldSpec, mus, budget: int = 1_000_000) -> list[TowerStage]:
    """Iterated doubling from the ground field, each double judged by
    `doubling_report` as soon as it is built."""
    built = tower_stages(field, mus)
    alg, grad = next(built)
    stages = [TowerStage(alg, grad, None, None)]
    for (alg, grad), mu in zip(built, mus):
        mu = field.coerce(mu)
        report = doubling_report(stages[-1].algebra, mu, alg, budget)
        stages.append(TowerStage(alg, grad, mu, report))
    return stages
