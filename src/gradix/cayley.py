"""Cayley-Dickson doubling of involutive algebras.

The double of (A, *) at an invertible scalar mu is A + Al with

    (a, b)(c, d) = (a c + mu d* b, d a + b c*),   (a, b)* = (a*, -b),

carrying the natural Z/2-gradation with A in degree 0.  Iterating from
the ground field produces the usual tower (complexification, quaternion,
octonion, sedenion stages) together with an accumulated (Z/2)^k-gradation.
`tower_stages` only builds the tower, so it works over Q and at any size;
`tower` also judges each double by the doubling criterion.  A double is
assembled as a structure tensor from four blocks of A's, and its rows of
Z_** are one contraction of that tensor with the involution.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (Algebra, SimplicityVerdict, _algebra, _np_right,
                      _np_vectors, _restrict, fixed_center, make_algebra,
                      simple_under, subfield_check)
from .errors import MuZero, ValidationError
from .fields import FieldSpec, Scalar
from .graded import Gradation, validate_gradation
from .groups import cyclic, elementary_abelian_two
from .linalg import (Subspace, identity_matrix, np_dtype, np_mod,
                     projective_count, projective_walk)


def _require_involution(alg: Algebra) -> None:
    if alg.involution is None:
        raise ValidationError("doubling needs an involutive algebra")


def cayley_double(alg: Algebra, mu, adjoined: str = "l") -> tuple[Algebra, Gradation]:
    """The double C(A, mu), graded by C2, with its tensor assembled from
    four blocks of A's: with C the structure tensor and S the involution,
    a c is C, d a is C with i and j swapped, b c* is C contracted with S,
    and mu d* b is mu times S contracted with C."""
    _require_involution(alg)
    f = alg.field
    mu = f.coerce(mu)
    if not mu:
        raise MuZero("doubling parameter is zero")
    d, p, c = alg.dim, f.p, alg._np_tensor
    sm, ss = _np_vectors(alg, alg.involution)
    (m,), sc = _np_vectors(alg, (mu,))
    double = np.zeros((2 * d,) * 3, dtype=np_dtype(p, 2 * d))
    # every block carries the scale ss * sc * `_np_scale`: a c, d a, b c*,
    # mu d* b
    double[:d, :d, :d] = np_mod(c * (ss * sc), p)
    double[:d, d:, d:] = np_mod(c.transpose(1, 0, 2) * (ss * sc), p)
    double[d:, :d, d:] = np_mod(np.einsum("imk,mj->ijk", c, sm), p) * sc
    double[d:, d:, :d] = np_mod(np_mod(np.einsum("mj,mik->ijk", sm, c), p) * m, p)
    unit = tuple(alg.unit) + (f.zero,) * d
    invol = tuple(tuple(row) + (f.zero,) * d for row in alg.involution)
    invol += tuple((f.zero,) * (d + i) + (f.neg(f.one),)
                   + (f.zero,) * (d - 1 - i) for i in range(d))
    labels = None
    if alg.labels:
        labels = alg.labels + tuple(
            adjoined if s == "1" else s + adjoined for s in alg.labels)
    doubled = _algebra(Algebra, f, 2 * d, double, ss * sc * alg._np_scale,
                       unit, invol, labels)
    return doubled, validate_gradation(doubled, cyclic(2), (0,) * d + (1,) * d)


# -- star ideals and centers ---------------------------------------------------

def is_star_simple(alg: Algebra, budget: int = 1_000_000) -> SimplicityVerdict:
    """No proper nonzero ideal closed under the involution."""
    _require_involution(alg)
    return simple_under(alg, maps=(alg.involution,), budget=budget)


def star_centers(alg: Algebra) -> tuple[Subspace, Subspace]:
    """Z_*, the symmetric central elements, `fixed_center` at the
    involution, and Z_**, the x of Z_* with x (b - b*) = 0 for all b, Z_*
    restricted by the rows of every R_{b - b*}: the two pieces that
    assemble the center of a double."""
    _require_involution(alg)
    f, d = alg.field, alg.dim
    z_star = fixed_center(alg, (alg.involution,))
    sm, s = _np_vectors(alg, alg.involution)
    diffs = np_mod(np.eye(d, dtype=sm.dtype) * s - sm.T, f.p)  # row j: e_j - e_j*
    rows = _np_right(alg, diffs).reshape(d * d, d)
    return z_star, _restrict(alg, z_star, rows)


def mu_square_in_center(alg: Algebra, center: Subspace, mu,
                        budget: int = 1_000_000) -> bool | None:
    """Is mu.1 a square inside `center` = Z(A)?  Over F_p: is w^2 = c.1 with
    c / mu a nonzero square, for a projective point w, as (l w)^2 = l^2 w^2?
    The points are squared 4096 at a time, each batch one contraction with
    the structure tensor, up to the first batch that holds such a w.  Over
    Q decided only for the scalar line (perfect-square), else None."""
    f = alg.field
    mu = f.coerce(mu)
    if f.is_finite:
        if not mu:
            return True
        _, points = projective_walk([center], budget,
                                    "projective points of a square check")
        p, d, c = f.p, alg.dim, alg._np_tensor
        unit, _ = _np_vectors(alg, alg.unit)
        i = int(np.flatnonzero(unit)[0])
        while batch := list(itertools.islice(points, 4096)):
            w = np.array(batch, dtype=c.dtype)
            left = np_mod(w @ c.reshape(d, d * d), p).reshape(-1, d, d)
            sq = np_mod(np.einsum("nj,njk->nk", w, left), p)      # w^2
            # sq = scalar.1 if sq is scalar; scalar / mu is a square
            # exactly when scalar mu is
            scalar = sq[:, i] * pow(int(unit[i]), -1, p) % p
            ok = (scalar != 0) & (sq == scalar[:, None] * unit % p).all(axis=1)
            if any(pow(x * mu % p, (p - 1) // 2, p) == 1
                   for x in scalar[ok].tolist()):
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
        v = simple_under(doubled, budget=budget)
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
    mus = [field.coerce(mu) for mu in mus]
    built = tower_stages(field, mus)
    alg, grad = next(built)
    stages = [TowerStage(alg, grad, None, None)]
    for (alg, grad), mu in zip(built, mus):
        report = doubling_report(stages[-1].algebra, mu, alg, budget)
        stages.append(TowerStage(alg, grad, mu, report))
    return stages
