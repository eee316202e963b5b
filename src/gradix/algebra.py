"""Finite-dimensional unital algebras given by structure constants.

An algebra of dimension d stores its multiplication sparsely as entries
(i, j, k, c) meaning e_i * e_j contains c * e_k; products of arbitrary
vectors expand bilinearly.  No associativity or commutativity is assumed
anywhere.  An algebra is built and checked on its structure tensor: the
product table, the unit and involution checks, inverses, the reduction
mod P and every contraction (associators, nuclei, centers, product and
cocycle checks) are one numpy code path for every field: over F_p on
residues, in int64 while products fit and in Python ints past that
(`linalg.np_dtype`); over Q on Python ints, each array the rationals
times the lcm of their denominators and carried with that scale
(`_np_vectors`, read back by `_np_scalars`).  Only `Algebra.multiply` of
two vectors stays on Python scalars.  Over Q most answers are first
settled on `Algebra._reduced`, the reduction mod one large prime;
elimination over Q, for the rest, is `linalg`'s Echelon path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ExactModeUnavailable, ValidationError
from .fields import FieldSpec, Scalar
from .linalg import (Subspace, Vec, coerce_matrix, identity_matrix, kernel,
                     mat_inverse, mat_vec, np_dtype, np_mat_pow, np_matmul,
                     np_mod, projective_walk, solve_affine)

# The prime of the reduction that certifies answers over Q: the largest
# prime below 2^25, so Norton's test runs in int64 up to d = 8192 and the
# density test up to d = 90; Norton's test finds its eigenvalues in time
# polynomial in log P, where a scan of F_P would visit 2^25 elements.
REDUCTION_FIELD = FieldSpec(33554393)


@dataclass(frozen=True)
class Algebra:
    field: FieldSpec
    dim: int
    mult: tuple[tuple[int, int, int, Scalar], ...]  # sorted (i, j, k, c), c != 0
    unit: Vec
    involution: tuple[tuple[Scalar, ...], ...] | None = None
    labels: tuple[str, ...] | None = None

    # -- element helpers ------------------------------------------------

    def element(self, coords) -> Vec:
        coords = tuple(self.field.coerce(c) for c in coords)
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        return coords

    def basis_vector(self, i: int) -> Vec:
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    def scalar_vec(self, c) -> Vec:
        return self.scale(self.field.coerce(c), self.unit)

    def add_vec(self, x: Vec, y: Vec) -> Vec:
        f = self.field
        return tuple(f.add(a, b) for a, b in zip(x, y))

    def sub_vec(self, x: Vec, y: Vec) -> Vec:
        f = self.field
        return tuple(f.sub(a, b) for a, b in zip(x, y))

    def neg_vec(self, x: Vec) -> Vec:
        return tuple(self.field.neg(a) for a in x)

    def scale(self, c: Scalar, x: Vec) -> Vec:
        f = self.field
        return tuple(f.mul(c, a) for a in x)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    # -- cached derived tables -------------------------------------------

    @cached_property
    def product_table(self) -> tuple:
        """Dense e_i * e_j vectors, read off `_np_tensor`."""
        return _np_scalars(self.field, self._np_tensor, self._np_scale)

    @cached_property
    def _np_scale(self) -> int:
        """The scale of `_np_tensor`: the lcm of the denominators of the
        structure constants, 1 over F_p."""
        return math.lcm(*(c.denominator for *_, c in self.mult))

    @cached_property
    def _np_tensor(self) -> np.ndarray:
        """C[i, j, k] times `_np_scale`, in the dtype of rows of width dim:
        residues over F_p, Python ints over Q."""
        c = np.zeros((self.dim,) * 3, dtype=np_dtype(self.field.p, self.dim))
        s = self._np_scale
        for i, j, k, x in self.mult:
            c[i, j, k] = x.numerator * (s // x.denominator)
        return c

    @cached_property
    def _np_ops(self) -> np.ndarray:
        """Stack of the 2*dim operators v -> e_j v and v -> v e_j."""
        c = self._np_tensor
        left = np.transpose(c, (0, 2, 1))   # left[j][k][m] = C[j][m][k]
        right = np.transpose(c, (1, 2, 0))  # right[j][k][m] = C[m][j][k]
        return np.concatenate([left, right])

    @cached_property
    def _np_defect(self) -> np.ndarray:
        """D[i, j, k, l]: the l-th coordinate of the basis associator
        (e_i, e_j, e_k), (e_i e_j) e_k - e_i (e_j e_k), each side one
        (d^2 x d) @ (d x d^2) `np_matmul` of the structure tensor; over Q
        times `_np_scale`^2, a scale that none of its uses (kernels, spans,
        zero tests) sees."""
        c, d, p = self._np_tensor, self.dim, self.field.p
        flat = c.reshape(d * d, d)
        first = np_matmul(flat, c.reshape(d, d * d), p)      # [(i, j), (k, l)]
        second = np_matmul(flat, c.transpose(1, 0, 2).reshape(d, d * d), p)
        second = second.reshape((d,) * 4).transpose(2, 0, 1, 3)  # [j,k,i,l]
        return np_mod(first.reshape((d,) * 4) - second, p)

    @cached_property
    def _center(self) -> Subspace:
        """Z(A), smallest system first: the kernel of the d^2 commuter
        rows, then `_nuclear_part` of it.  The unit lies in Z(A), so once
        the survivors are one line they are the unit line and the
        answer."""
        space = kernel(self.field, _nonzero_rows(_commuter_rows(self)),
                       self.dim)
        return _nuclear_part(self, space, 1)

    @cached_property
    def _reduced(self) -> Algebra | None:
        """This algebra over Q with its structure constants and unit reduced
        mod P (`REDUCTION_FIELD`); None over a finite field, or when an entry
        has a denominator divisible by P.

        Let Z_(P) be the rationals with denominators prime to P.  The basis
        spans a Z_(P)-lattice that every L_{e_j} and R_{e_j} preserves, and
        reduction mod P is a ring map on it.  Two facts make the reduction a
        one-sided certificate.  The rank of a matrix over Z_(P) is at least
        the rank of its reduction, so a subspace cut out by such equations
        has dimension at most that of its reduction.  A proper nonzero
        invariant Q-subspace W reduces to a proper nonzero invariant
        F_P-subspace of the same dimension, because W meets the lattice in a
        pure sublattice, whose basis stays independent mod P.  So a rank-1
        nucleus or center of the reduction is the unit line over Q, an
        irreducible reduction proves A simple, and a nonzero associator of
        the reduction proves A not associative.  As a ring map keeps the unit
        a two-sided identity, the reduced tensor needs no `make_algebra`."""
        p = REDUCTION_FIELD.p
        if (self.field.is_finite or self._np_scale % p == 0
                or any(c.denominator % p == 0 for c in self.unit)):
            return None
        idx, vals = _np_entries(REDUCTION_FIELD, self._np_tensor % p,
                                self._np_scale)
        mult = tuple(zip(*(a.tolist() for a in idx), vals))
        return Algebra(REDUCTION_FIELD, self.dim, mult,
                       tuple(REDUCTION_FIELD.coerce(c) for c in self.unit))

    # -- products ---------------------------------------------------------

    def multiply(self, x: Vec, y: Vec) -> Vec:
        f = self.field
        out = [f.zero] * self.dim
        for i, j, k, c in self.mult:
            a = x[i]
            if not a:
                continue
            b = y[j]
            if not b:
                continue
            out[k] = f.add(out[k], f.mul(f.mul(a, b), c))
        return tuple(out)

    def star(self, v: Vec) -> Vec:
        if self.involution is None:
            raise ValidationError("algebra has no involution")
        return mat_vec(self.field, self.involution, v)


def make_algebra(field: FieldSpec, dim: int, entries, unit,
                 involution=None, labels=None) -> Algebra:
    """Coerce, canonicalize, and validate a structure-constant algebra."""
    return _make(Algebra, field, dim, entries, unit, involution, labels)


def _make(cls, field: FieldSpec, dim: int, entries, unit, involution=None,
          labels=None, **fields):
    """`make_algebra` as an instance of cls, a subclass of Algebra, with
    its own `fields` (`crossed.CrossedProduct` and its system)."""
    if dim < 1:
        raise ValidationError(f"algebra dim must be at least 1, got {dim}")
    acc: dict[tuple[int, int, int], Scalar] = {}
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValidationError(f"tensor index {(i, j, k)} out of range for dim {dim}")
        c, key = field.coerce(c), (i, j, k)
        acc[key] = field.add(acc[key], c) if key in acc else c
    mult = tuple((i, j, k, c) for (i, j, k), c in sorted(acc.items()) if c)
    unit = tuple(field.coerce(c) for c in unit)
    if len(unit) != dim:
        raise DimensionMismatch("unit length != dim")
    if involution is not None:
        involution = tuple(tuple(field.coerce(c) for c in row) for row in involution)
        if len(involution) != dim or any(len(r) != dim for r in involution):
            raise DimensionMismatch("involution matrix shape != dim x dim")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise DimensionMismatch("labels length != dim")

    alg = cls(field, dim, mult, unit, involution, labels, **fields)
    # L_u = R_u = I times their scale; column j is u e_j and e_j u
    u, s = _np_vectors(alg, unit)
    ident = np_mod(np.eye(dim, dtype=u.dtype) * (s * alg._np_scale), field.p)
    bad = (_np_mults(alg, u) != ident).any(axis=(0, 1))
    if bad.any():
        raise ValidationError("unit is not a two-sided identity at basis "
                              f"{int(np.argmax(bad))}")
    if involution is not None:
        _check_involution(alg)
    return alg


def _check_involution(alg: Algebra) -> None:
    p = alg.field.p
    m, s = _np_vectors(alg, alg.involution)
    u, _ = _np_vectors(alg, alg.unit)
    eye = np.eye(alg.dim, dtype=m.dtype)
    if (np_matmul(m, u, p) != np_mod(u * s, p)).any():
        raise ValidationError("involution does not fix the unit")
    if (np_matmul(m, m, p) != np_mod(eye * s * s, p)).any():
        raise ValidationError("involution does not square to the identity")
    bad = _product_mismatch(alg, alg.involution, reverse=True)
    if bad is not None:
        raise ValidationError(f"involution does not reverse products at {bad}")


def _np_vectors(alg: Algebra, vecs) -> tuple[np.ndarray, int]:
    """A nested sequence of scalars (vectors, matrices or stacks of them)
    as an array in the dtype of `Algebra._np_tensor`, with its scale s:
    residues and s = 1 over F_p; over Q the scalars times the lcm s of
    their denominators, as Python ints.  A contraction multiplies the
    scales of its factors, and an equation between two contractions
    compares each side times the other side's scale."""
    f = alg.field
    if f.is_finite:
        return np.array(vecs, dtype=alg._np_tensor.dtype) % f.p, 1
    a = np.array(vecs, dtype=object)
    s = math.lcm(*(x.denominator for x in a.flat))
    ints = [x.numerator * (s // x.denominator) for x in a.flat]
    return np.array(ints, dtype=object).reshape(a.shape), s


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a that are not all zero: a kernel would copy and reduce
    the zero ones before dropping them."""
    return a[a.any(axis=1)]


def _combine(space: Subspace, coords: Subspace) -> Subspace:
    """The vectors sum_i a_i row_i of `space` for every a in `coords`, a
    subspace of F^k on the k basis rows.  Both are in RREF, so the products
    are too: row r of them has 1 in the pivot column of row q_r of `space`,
    q_r the pivot of row r of `coords`, and 0 in every other pivot column."""
    f = space.field
    a = np.array(coords.basis, dtype=object).reshape(-1, space.rank)
    rows = np_mod(a @ np.array(space.basis, dtype=object), f.p)
    return Subspace(f, space.ambient, tuple(map(tuple, rows.tolist())),
                    tuple(space.pivots[q] for q in coords.pivots))


def _restrict(alg: Algebra, space: Subspace, rows: np.ndarray) -> Subspace:
    """The x of `space` with rows x = 0: the a K, K the k x d basis of
    `space`, with (rows K^T) a = 0, a system on the k coordinates a only.
    Over Q the rows may be any nonzero multiple of the equations."""
    if space.is_zero:
        return space
    x, _ = _np_vectors(alg, space.basis)
    eqs = np_matmul(rows, x.T, alg.field.p)
    return _combine(space, kernel(alg.field, _nonzero_rows(eqs), space.rank))


def _nuclear_part(alg: Algebra, space: Subspace, stop: int) -> Subspace:
    """The x of `space` in N(A): each associator slot (x, -, -),
    (-, x, -), (-, -, x) imposed on the survivors of the slots before it
    (`_restrict` by the d^3 rows of `_np_defect` in that slot), stopping
    once at most `stop` of them survive.  An associative A (`_np_defect`
    all zero) needs no slot."""
    d = alg.dim
    if space.rank <= stop or not alg._np_defect.any():
        return space
    for slot in range(3):
        rows = np.moveaxis(alg._np_defect, slot, 0).reshape(d, d ** 3).T
        space = _restrict(alg, space, rows)
        if space.rank <= stop:
            break
    return space


def _np_scalars(f: FieldSpec, a: np.ndarray, s: int):
    """The field scalars a / s of an array that carries the scale s, as
    nested tuples of Python scalars (Fractions over Q)."""
    unscale = f.inv(f.coerce(s))

    def scalars(x):
        if isinstance(x, list):
            return tuple(map(scalars, x))
        return f.mul(x, unscale)
    return scalars(a.tolist())


def _np_entries(f: FieldSpec, a: np.ndarray, s: int) -> tuple[list, list]:
    """The nonzero entries of an array that carries the scale s: their
    index arrays, one per axis, and their field scalars a / s."""
    idx = np.nonzero(a)
    return idx, list(_np_scalars(f, a[idx], s))


def _np_mults(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The matrices of v -> x v and v -> v x for one vector x, as one
    (2, d, d) array: x times the stack `Algebra._np_ops`, 2 d^3 products in
    the tensor's dtype (a float64 round trip costs more than that).  Their
    scale is x's times `Algebra._np_scale`."""
    d = alg.dim
    prods = np_mod(x @ alg._np_ops.reshape(2, d, d * d), alg.field.p)
    return prods.reshape(2, d, d)


def _np_left(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The matrices of v -> x v, one per vector of the stack x (last axis);
    their scale is x's times `Algebra._np_scale`."""
    return np_mod(np.swapaxes(np.tensordot(x, alg._np_tensor, 1), -1, -2),
                  alg.field.p)


def _np_right(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The matrices of v -> v x, one per vector of the stack x (last axis);
    their scale is x's times `Algebra._np_scale`."""
    c = alg._np_tensor.transpose(1, 0, 2)
    return np_mod(np.swapaxes(np.tensordot(x, c, 1), -1, -2), alg.field.p)


def _product_mismatch(alg: Algebra, m, reverse: bool = False):
    """The first basis pair (i, j), in row-major order, with m(e_i e_j)
    other than m(e_i) m(e_j), or m(e_j) m(e_i) when `reverse`; None when
    there is none.  All d^2 pairs are compared at once."""
    p, c, d = alg.field.p, alg._np_tensor, alg.dim
    mm, s = _np_vectors(alg, m)
    images = np_matmul(c, mm.T, p)                          # m(e_i e_j)
    half = np_matmul(mm.T, c.reshape(d, d * d), p)          # [i, b]: m(e_i) e_b
    half = half.reshape(d, d, d).transpose(1, 0, 2).reshape(d, d * d)
    prods = np_matmul(mm.T, half, p).reshape(d, d, d)     # [j, i]: m(e_i) m(e_j)
    if not reverse:
        prods = prods.transpose(1, 0, 2)
    # images carry the scale s C, prods s^2 C
    bad = np.argwhere((images * s != prods).any(axis=2))
    return (int(bad[0, 0]), int(bad[0, 1])) if len(bad) else None


# -- brackets ----------------------------------------------------------------

def multiply(alg: Algebra, x: Vec, y: Vec) -> Vec:
    return alg.multiply(x, y)


def commutator(alg: Algebra, x: Vec, y: Vec) -> Vec:
    return alg.sub_vec(alg.multiply(x, y), alg.multiply(y, x))


def associator(alg: Algebra, x: Vec, y: Vec, z: Vec) -> Vec:
    return alg.sub_vec(alg.multiply(alg.multiply(x, y), z),
                       alg.multiply(x, alg.multiply(y, z)))


# -- nuclei and center ------------------------------------------------------

@dataclass(frozen=True)
class CentralSubspaces:
    left: Subspace      # x with (x, -, -) = 0
    middle: Subspace    # x with (-, x, -) = 0
    right: Subspace     # x with (-, -, x) = 0
    nucleus: Subspace
    commuter: Subspace  # x with [x, -] = 0
    center: Subspace


def _nucleus_blocks(alg: Algebra):
    """The left, middle, right and commuter equations, nonzero rows only:
    of the 3 d^3 + d^2 rows most are zero, and every kernel would copy and
    reduce them before dropping them.  Over Q the rows are integers, each
    block a multiple of the true equations, which has the same kernel."""
    d = alg.dim
    defect = alg._np_defect
    left = defect.transpose(1, 2, 3, 0).reshape(d ** 3, d)
    middle = defect.transpose(0, 2, 3, 1).reshape(d ** 3, d)
    right = defect.transpose(0, 1, 3, 2).reshape(d ** 3, d)
    return tuple(map(_nonzero_rows, (left, middle, right, _commuter_rows(alg))))


def _commuter_rows(alg: Algebra) -> np.ndarray:
    """The d^2 rows, (j, k) in row-major order, of the equations
    [x, e_j]_k = 0 on x: their kernel is the commuter."""
    c, d = alg._np_tensor, alg.dim
    comm = np_mod(c - c.transpose(1, 0, 2), alg.field.p)
    return comm.transpose(1, 2, 0).reshape(d * d, d)


def _twisted_commuter_rows(alg: Algebra, twists: np.ndarray,
                           s: int) -> np.ndarray:
    """Per twist tau of the stack `twists` (..., d, d), carrying the scale
    s, the d^2 rows, (b, k) in row-major order, of L_{e_b} - R_{tau(e_b)}:
    their kernel is the x with e_b x = x tau(e_b) for all b.  All of them
    are one contraction of the structure tensor."""
    d, p = alg.dim, alg.field.p
    eye = np.eye(d, dtype=twists.dtype)
    # L_{e_b} carries the scale of the tensor, R_{tau(e_b)} s times that
    diff = np_mod(_np_left(alg, eye) * s
                  - _np_right(alg, np.swapaxes(twists, -1, -2)), p)
    return diff.reshape(twists.shape[:-2] + (d * d, d))


def nuclear_mask(alg: Algebra, vecs) -> list[bool]:
    """Per vector, whether it lies in the nucleus, tested without solving:
    the associators (v, e_j, e_k), (e_i, v, e_k) and (e_i, e_j, v) of all
    the vectors at once are one `np_matmul` with `_np_defect` per slot, or
    none when that tensor is all zero: every associator is a combination
    of basis ones, so then every vector is nuclear."""
    vecs = list(vecs)
    for v in vecs:
        if len(v) != alg.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {alg.dim}")
    defect, d, p = alg._np_defect, alg.dim, alg.field.p
    if not defect.any():
        return [True] * len(vecs)
    x = _np_vectors(alg, vecs)[0].reshape(-1, d)
    bad = np.zeros(len(x), dtype=bool)
    for s in range(3):
        slot = np_matmul(x, np.moveaxis(defect, s, 0).reshape(d, -1), p)
        bad |= slot.any(axis=1)
    return (~bad).tolist()


CENTRAL_NAMES = ("left", "middle", "right", "nucleus", "commuter", "center")


def _central(alg: Algebra, names) -> dict:
    """The named central subspaces, each the kernel of its blocks of
    `_nucleus_blocks` stacked."""
    left, middle, right, comm = _nucleus_blocks(alg)
    systems = {"left": [left], "middle": [middle], "right": [right],
               "nucleus": [left, middle, right], "commuter": [comm],
               "center": [left, middle, right, comm]}
    return {n: kernel(alg.field, np.concatenate(systems[n]), alg.dim)
            for n in names}


def nucleus_and_center(alg: Algebra) -> CentralSubspaces:
    """The nuclei, the commuter and the center, each as the kernel of its
    equations.  Over Q each of the six that has rank 1 in the reduction mod
    P (`Algebra._reduced`) is the line of the unit, which lies in all six;
    only the others are solved, on the integer rows of the same blocks."""
    out = {}
    red = alg._reduced
    if red is not None:
        unit_line = Subspace.span(alg.field, alg.dim, [alg.unit])
        out = {n: unit_line for n, space in _central(red, CENTRAL_NAMES).items()
               if space.rank == 1}
    rest = [n for n in CENTRAL_NAMES if n not in out]
    if rest:
        out.update(_central(alg, rest))
    return CentralSubspaces(**out)


# -- inverses ----------------------------------------------------------------

def inverse_system(alg: Algebra, r: Vec):
    """Equations for s with r s = 1 and s r = 1, as (rows, rhs): the rows of
    the matrices of v -> r v and v -> v r, over the unit twice, both sides
    times the scale of the rows (over Q integer rows)."""
    x, s = _np_vectors(alg, r)
    scale = alg.field.coerce(s * alg._np_scale)
    rows = _np_mults(alg, x).reshape(2 * alg.dim, alg.dim).tolist()
    return rows, [alg.field.mul(c, scale) for c in alg.unit] * 2


def two_sided_inverse(alg: Algebra, r: Vec) -> Vec | None:
    """A solution of r s = s r = 1, or None.  Free coordinates are zeroed,
    so the answer is deterministic; uniqueness is not assumed."""
    rows, rhs = inverse_system(alg, r)
    particular, _ = solve_affine(alg.field, rows, rhs)
    return particular


def first_unit(alg: Algebra, space: Subspace,
               budget: int = 1_000_000) -> tuple[Vec, Vec] | None:
    """The first two-sided unit of `space` and its inverse, or None (F_p),
    in the order of `projective_walk`, and refused as it refuses."""
    _, points = projective_walk([space], budget,
                                "projective points of a unit search")
    return next(((u, inv) for u in points
                 if (inv := two_sided_inverse(alg, u)) is not None), None)


# -- ideal closures ----------------------------------------------------------

def _np_generators(alg: Algebra, maps=()) -> np.ndarray:
    """The operators L_{e_j}, R_{e_j} followed by the extra maps (matrices,
    or one array stack), in the dtype of the structure tensor; over Q each
    a nonzero multiple of its map, which has the same invariant
    subspaces."""
    if not len(maps):
        return alg._np_ops
    return np.concatenate([alg._np_ops, _np_vectors(alg, maps)[0]])


def _spin(rows: np.ndarray, gens: np.ndarray, target: int, p: int):
    """The frontier spin of the MeatAxe (Parker 1984; Holt & Rees 1994) over
    F_p: the span of `rows` under the stack `gens` of d x d matrices, where
    a row of width d c is a d x c matrix that each generator multiplies on
    the left (c = 1 for vectors, c = d for operators).  It stops once the
    span reaches dimension `target` or stops growing.  Each round maps only
    the rows that the last round added, reduced against the echelon so
    far, so one `np_rref` call per round sees only the new directions.
    Returns the RREF rows in pivot order and their pivots.  An entry of the
    reduction sums one residue product per pivot, at most one per column:
    inside `np_dtype` for a closure, `_norton_fits` for the spins of
    Norton's test, `_density_fits` for the density test."""
    from .linalg import np_rref
    d, width = gens.shape[1], rows.shape[1]
    ech, piv = np_rref(rows, p)
    frontier = ech
    while len(ech) < target:
        prods = gens @ frontier.reshape(-1, 1, d, width // d)
        prods = prods.reshape(-1, width) % p
        new, npiv = np_rref(prods - prods[:, piv] @ ech, p)
        if not len(new):
            break
        ech = np.concatenate([(ech - ech[:, npiv] @ new) % p, new])
        piv = piv + npiv
        frontier = new
    return ech[np.argsort(piv)], sorted(piv)


def _closure_np(alg: Algebra, seeds, gens: np.ndarray):
    """The least subspace containing the seeds that every generator in the
    stack maps into itself: `_spin` of the seeds, up to dimension d."""
    rows = np.array([[int(c) for c in v] for v in seeds],
                    dtype=gens.dtype).reshape(-1, alg.dim)
    return _spin(rows, gens, alg.dim, alg.field.p)


def _closure_echelon(alg: Algebra, seeds, maps=()):
    """The closure of the seeds in `linalg.Echelon`: each round adds the
    images of every row under every generator of `_np_generators`."""
    from .linalg import Echelon
    gens = _np_generators(alg, maps)
    ech = Echelon(alg.field, alg.dim)
    ech.extend(seeds)
    while 0 < ech.rank < alg.dim:
        rows, _ = _np_vectors(alg, ech.rows)
        images = np_mod(rows @ gens.transpose(0, 2, 1), alg.field.p)
        if not ech.extend(images.reshape(-1, alg.dim).tolist()):
            break
    return ech


def ideal_closure(alg: Algebra, generators, maps=()) -> Subspace:
    """Least subspace containing the generators that is closed under left and
    right multiplication by the whole algebra (and under the extra linear
    maps, when given)."""
    gens = [alg.element(v) for v in generators]
    if alg.field.is_finite:
        ech, piv = _closure_np(alg, gens, _np_generators(alg, maps))
        return Subspace(alg.field, alg.dim,
                        tuple(tuple(int(c) for c in row) for row in ech),
                        tuple(piv))
    return _closure_echelon(alg, gens, maps).to_subspace()


# -- simplicity --------------------------------------------------------------

@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    witness: Vec | None   # generator of a proper nonzero invariant ideal
    mode: str             # "exact" or "randomized"
    checked: int
    """Points the verdict settles: for an exact "simple" verdict every point
    of the sweep (the projective points of A; for a graded verdict, the
    homogeneous points); for a witness, its position in the sweep order; in
    randomized mode, the samples that a "simple" verdict covers (all
    `trials` of them, also when the reduction mod P proved it over Q and
    none was drawn) or the position of the sample that is the witness."""


def random_element(alg: Algebra, rng: random.Random) -> Vec:
    f = alg.field
    for _ in range(64):
        if f.is_finite:
            v = tuple(rng.randrange(f.p) for _ in range(alg.dim))
        else:
            v = tuple(f.coerce(rng.randint(-10, 10)) for _ in range(alg.dim))
        if any(v):
            return v
    return alg.basis_vector(0)


def _density_fits(p: int, d: int) -> bool:
    """int64 holds the products of `_density_irreducible` over F_p."""
    return d * d * (p - 1) ** 2 < 2 ** 63


def _norton_fits(p: int, d: int) -> bool:
    """int64 holds the products of `_norton_irreducible` over F_p: sums of
    d residue products, on vectors and matrices of width d."""
    return d * (p - 1) ** 2 < 2 ** 63


def _commutant_field(alg: Algebra, gens: np.ndarray) -> int | None:
    """The dimension k of the commutant C = End_M(A) of the associative
    algebra M generated by the stack `gens` when C is a field, else None.
    `gens` must begin with the 2d operators `Algebra._np_ops`, L_{e_j} then
    R_{e_j}, as `_np_generators` stacks them; only the maps after them
    are imposed here.

    The operators that commute with every L_a and R_a are the L_c for c in
    Z(A) (the centroid of a unital algebra is its center; Schafer, "An
    Introduction to Nonassociative Algebras", 1966, ch. II).  Let X be
    one, and c = X(1).  X commutes with every R_a, so X(a) = X(R_a 1) =
    c a, and X = L_c.  Then:
      - [L_c, R_b] = 0 for all b says c(xb) = (cx)b, that is c in N_l;
      - [L_c, L_b](1) = cb - bc, so c commutes with A;
      - given those two, c(bx) = b(cx) says (cb)x = b(cx), so c in N_m;
      - and then (xy)c = c(xy) = (cx)y = (xc)y = x(cy) = x(yc), so
        (x, y, c) = 0 and c in N_r.
    Conversely every c in Z(A) gives such an L_c.  So C is found from
    `Algebra._center` as the c with [L_c, T] = 0 for the extra maps T
    only, and nothing is solved for the L_{e_j}, R_{e_j}.  C is
    commutative, as Z(A) is.  A commutative F_p-algebra is a field exactly
    when its Frobenius x -> x^p is injective and fixes only the prime field
    (Berlekamp)."""
    from .linalg import np_kernel, np_rref
    p, d = alg.field.p, alg.dim
    left = gens[:d].reshape(d, d * d)
    cbasis = np.array(alg._center.basis, dtype=gens.dtype).reshape(-1, d)
    extra = gens[2 * d:]
    if len(cbasis) > 1 and len(extra):
        ls = np_matmul(cbasis, left, p).reshape(-1, 1, d, d)  # L_c per basis c
        comm = np_matmul(ls, extra, p) - np_matmul(extra, ls, p)
        rows = _nonzero_rows(comm.reshape(len(cbasis), -1).T)
        cbasis = np_kernel(rows, p) @ cbasis % p
    k = len(cbasis)
    if k > 1:
        cbasis, cpiv = np_rref(cbasis, p)
        xs = np_matmul(cbasis, left, p).reshape(-1, d, d)
        unit = np.array([int(c) % p for c in alg.unit], dtype=xs.dtype)
        frob = (np_mat_pow(xs, p, p) @ unit % p)[:, cpiv]  # rows: x_j^p in C
        if (len(np_rref(frob, p)[0]) < k or
                len(np_rref(frob - np.eye(k, dtype=frob.dtype), p)[0]) != k - 1):
            return None
    return k


def _density_irreducible(alg: Algebra, gens: np.ndarray) -> bool:
    """Jacobson density test over F_p (Holt & Rees, "Testing modules for
    irreducibility", 1994): A is irreducible under the associative algebra M
    generated by the stack `gens` (from `_np_generators`) exactly when the
    commutant C = End_M(A) is a division algebra of dimension k and
    dim M = d^2 / k, that is M = End_C(A).  M is the `_spin` of the
    identity matrix under the generators, the loop that closes ideals, here
    on d x d matrices flattened to rows.  Needs d^2 (p - 1)^2 < 2^63, the
    bound of the int64 products of that spin."""
    p, d = alg.field.p, alg.dim
    k = _commutant_field(alg, gens)
    if k is None:
        return False
    target = d * d // k
    span, _ = _spin(np.eye(d, dtype=np.int64).reshape(1, d * d), gens,
                    target, p)
    return len(span) == target


# draws before Norton's test gives up; then the density test or the
# sweep decides
NORTON_DRAWS = 16


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int):
    """(quotient, remainder) of a by the monic b over F_p; polynomials are
    coefficient lists, lowest degree first, and 0 is []."""
    a, m = list(a), len(b) - 1
    q = [0] * max(len(a) - m, 0)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = a[k + m] % p
        for i, c in enumerate(b):
            a[k + i] -= t * c
    return q, _trim([c % p for c in a[:m]])


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of two polynomials, not both 0."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _poly_divmod(a, [c * inv % p for c in b], p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _power_mod(a: int, e: int, f: list[int], p: int) -> list[int]:
    """(X + a)^e mod the monic f over F_p, for e >= 1 and deg f >= 1: the
    first column of the e-th power of the companion matrix of f plus a,
    the matrix of multiplication by X + a on F_p[X] / (f), by
    `np_mat_pow`."""
    m = len(f) - 1
    comp = np.zeros((m, m), dtype=np.int64)
    comp[np.arange(1, m), np.arange(m - 1)] = 1
    comp[:, -1] = [-c % p for c in f[:m]]
    comp[np.diag_indices(m)] += a
    return _trim(np_mat_pow(comp % p, e, p)[:, 0].tolist())


def _split_roots(g: list[int], p: int) -> list[int]:
    """The roots, ascending, of a monic g over F_p that divides X^p - X:
    the one root if deg g = 1; all of F_p if g = X^p - X, which covers
    p = 2; otherwise the equal-degree splitting of Cantor & Zassenhaus
    (Math. Comp. 36, 1981) by gcd(g, (X + a)^((p - 1) / 2) - 1) for
    a = 0, 1, 2, ...  That gcd collects the roots r with r + a a nonzero
    square.  For two roots r != s the sum over a of chi(r + a) chi(s + a)
    is -1 for the quadratic character chi, so some a parts them, and the
    loop ends."""
    r = len(g) - 1
    if r <= 1:
        return [-g[0] % p] if r else []
    if r == p:
        return list(range(p))
    for a in range(p):
        h = _power_mod(a, (p - 1) // 2, g, p) or [0]
        h[0] -= 1
        part = _poly_gcd(g, h, p)
        if 0 < len(part) - 1 < r:
            rest = _poly_divmod(g, part, p)[0]
            return sorted(_split_roots(part, p) + _split_roots(rest, p))
    raise AssertionError("no a parts the roots")


def _min_poly_roots(x: np.ndarray, v: np.ndarray, p: int) -> list[int]:
    """The roots in F_p, ascending, of the minimal polynomial f of x on v:
    X^m - sum_i a_i X^i, where x^m v = sum_i a_i x^i v is the first relation
    of the Krylov vectors v, x v, ..., x^d v, read off one RREF of them as
    columns.  Every root is an eigenvalue of x.  The roots are those of
    g = gcd(f, X^p - X), with X^p mod f found by `_power_mod` in about
    2 log2(p) products of m x m matrices; `_split_roots` reads them off g.
    So a draw costs time polynomial in log p and d, not a scan of F_p."""
    from .linalg import np_rref
    krylov = [v]
    for _ in range(len(v)):
        krylov.append(x @ krylov[-1] % p)
    red, piv = np_rref(np.stack(krylov, axis=1), p)
    f = [-int(a) % p for a in red[:, len(piv)]] + [1]
    if len(f) == 1:
        return []
    xp = _power_mod(0, p, f, p) + [0, 0]
    xp[1] -= 1
    return _split_roots(_poly_gcd(f, xp, p), p)


def _norton_irreducible(alg: Algebra, gens: np.ndarray) -> bool | None:
    """Norton's irreducibility test (Parker's MeatAxe, in the form of Holt &
    Rees, "Testing modules for irreducibility", 1994) over F_p: whether A is
    irreducible under the associative algebra M generated by the stack
    `gens` (from `_np_generators`); None when no draw decides.

    The commutant C = End_M(A) must be a field of some dimension k, or a
    singular X in C has a proper invariant kernel (`_commutant_field`); if
    k = d, A = C is a field and irreducible.  Otherwise draw x in M and find
    an eigenvalue lambda in F_p of x with dim ker(x - lambda) = k, so that
    the kernel N = C v is a line over C for any nonzero v in N.  Let U be a
    proper nonzero invariant subspace.  If U holds some c v, c in C, then
    c^-1 U is one too and holds v, so the spin of v under the generators is
    proper.  Otherwise N injects into A / U, where ker(x - lambda) is then
    at least k-dimensional, so U's annihilator in the dual, invariant under
    the transposes, holds the whole k-dimensional kernel of the transpose
    of x - lambda, and the spin of any vector of it is proper.  So both
    spins full prove A irreducible, and either one proper proves it
    reducible.

    Each draw plants the eigenvalue 0: x <- x - L_{x(1)}, still in M as
    the L_{e_j} are generators, sends the unit to 0, so ker x holds the
    k-dimensional C 1 (C is the L_c, c in the center; `_commutant_field`).
    The spin of 1 holds every L_a 1 = a and is all of A, so when
    dim ker x = k, read off the kernel of the transpose, the dual spin
    alone decides.  Otherwise the other eigenvalues of x come from
    `_min_poly_roots`, at a cost polynomial in log p and d.  The draws
    x <- x y + y, y a random combination of the generators, and the
    vectors come from a fixed seed, so the answer is deterministic.  Needs
    d (p - 1)^2 < 2^63 (`_norton_fits`)."""
    from .linalg import np_kernel
    p, d = alg.field.p, alg.dim
    gens = np.asarray(gens, dtype=np.int64)
    k = _commutant_field(alg, gens)
    if k is None:
        return False
    if k == d:
        return True
    rng = random.Random(0)
    eye = np.eye(d, dtype=np.int64)
    unit = np.array([int(c) % p for c in alg.unit], dtype=np.int64)
    transposes = gens.transpose(0, 2, 1)

    def draw():
        coeffs = np.array([rng.randrange(p) for _ in gens], dtype=np.int64)
        return (coeffs[:, None, None] * gens % p).sum(axis=0) % p

    def dual_spin_full(shifted):
        dual = np_kernel(shifted.T, p)
        return len(_spin(dual[:1], transposes, d, p)[0]) == d

    x = draw()
    for _ in range(NORTON_DRAWS):
        y = draw()
        x = (np_matmul(x, y, p) + y) % p
        x = (x - np.tensordot(x @ unit % p, gens[:d], 1)) % p  # x(1) = 0
        if len(np_kernel(x.T, p)) == k:
            return dual_spin_full(x)
        v = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        for lam in _min_poly_roots(x, v, p):
            if not lam:     # its kernel, read off the transpose, failed
                continue
            shifted = (x - lam * eye) % p
            null = np_kernel(shifted, p)
            if len(null) != k:
                continue
            if len(_spin(null[:1], gens, d, p)[0]) < d:
                return False
            return dual_spin_full(shifted)
    return None


def _irreducible(alg: Algebra, gens: np.ndarray,
                 density: bool = True) -> bool | None:
    """Whether A over F_p is irreducible under the associative algebra
    generated by the stack `gens`; None when undecided.  Norton's test
    runs for d >= 5, and the density test, when `density` allows it, for
    d <= 4, where it is the cheaper one, and when Norton's test is
    undecided; each only where int64 holds its products (`_norton_fits`,
    `_density_fits`)."""
    p, d = alg.field.p, alg.dim
    verdict = None
    if d >= 5 and _norton_fits(p, d):
        verdict = _norton_irreducible(alg, gens)
    if verdict is None and density and _density_fits(p, d):
        verdict = _density_irreducible(alg, gens)
    return verdict


def _exact_verdict(alg: Algebra, maps, spaces, budget: int,
                   what: str) -> SimplicityVerdict:
    """The exact verdict of every simplicity notion: is A irreducible under
    the L_{e_j}, R_{e_j} and the extra maps?  The sweep is the
    `projective_walk` of the subspaces, refused past the budget before
    anything runs.
    Once the sweep would visit more than d points, `_irreducible` decides
    first, the one test of irreducibility that the reduction of an algebra
    over Q runs too: Norton's test for d >= 5, and past d^2 points the
    density test, for d <= 4 and when Norton's test is undecided.  An
    irreducible A is then decided without the sweep, which otherwise runs
    to name the same first witness.  The crossover is measured: on the
    graded crossed products of H and M_2 by C2, C3 and C4 over F_3
    (d = 8 to 16), one Norton call, its draws planting the eigenvalue 0,
    costs about as much as 1.4-3.5 closures of the sweep (median 2.6;
    2.4-7.1 before the planted draws).  The gate at d
    points was set when it cost 8-10: a reducible A pays for the test and
    for the sweep, so sweeps of up to d points, as of crossed products with
    a one-dimensional T, run alone."""
    if not alg.field.is_finite:
        raise ExactModeUnavailable("exact enumeration needs a finite field")
    d = alg.dim
    total, points = projective_walk(spaces, budget, what)
    gens = _np_generators(alg, maps)
    irreducible = None
    if total > d:
        irreducible = _irreducible(alg, gens, density=total > d * d)
    if irreducible:
        return SimplicityVerdict(True, None, "exact", total)
    for checked, pt in enumerate(points, 1):
        if len(_closure_np(alg, [pt], gens)[0]) < d:
            return SimplicityVerdict(False, pt, "exact", checked)
    if irreducible is False:
        raise RuntimeError("the irreducibility test found A reducible but "
                           "the sweep found no proper invariant ideal")
    return SimplicityVerdict(True, None, "exact", total)


def _reduction_irreducible(alg: Algebra, maps) -> bool:
    """Whether `_irreducible`, the test that exact verdicts run, proves the
    reduction mod P of A over Q, with the maps reduced too, irreducible:
    Norton's test for d >= 5, the density test for d <= 4 and when no draw
    of Norton's test decides.  True proves A simple under the maps (see
    `Algebra._reduced`); False, reducible or undecided, settles nothing.
    Maps with a denominator divisible by P do not reduce, and give
    False."""
    red = alg._reduced
    if red is None:
        return False
    try:
        maps = [coerce_matrix(red.field, m, red.dim) for m in maps]
    except ZeroDivisionError:
        return False
    return _irreducible(red, _np_generators(red, maps)) is True


def simple_under(alg: Algebra, maps=(),
                 budget: int = 1_000_000) -> SimplicityVerdict:
    """Exact verdict over F_p: whether the only ideals closed under the
    extra maps are 0 and the whole algebra.  It is `_exact_verdict` over the
    projective points of A.  Raises `ExactModeUnavailable` over Q."""
    f, d = alg.field, alg.dim
    whole = Subspace(f, d, identity_matrix(f, d), tuple(range(d)))
    return _exact_verdict(alg, maps, [whole], budget, "projective points")


def sample_simple(alg: Algebra, maps=(), trials: int = 1000,
                  seed: int = 0) -> SimplicityVerdict:
    """Randomized verdict: samples can only refute or report
    no-counterexample.  Over Q it first tests the reduction mod P
    (`_reduction_irreducible`: Norton's test for d >= 5, the density test
    for d <= 4); an irreducible reduction proves A simple, and every
    sample would find a full closure, so the verdict is the "randomized"
    simple one with `checked = trials`, drawn without sampling.  Otherwise,
    and always over F_p, the samples are drawn."""
    if _reduction_irreducible(alg, maps):
        return SimplicityVerdict(True, None, "randomized", trials)
    rng = random.Random(seed)
    for t in range(trials):
        v = random_element(alg, rng)
        if not ideal_closure(alg, [v], maps).is_full:
            return SimplicityVerdict(False, v, "randomized", t + 1)
    return SimplicityVerdict(True, None, "randomized", trials)


def is_simple(alg: Algebra, budget: int = 1_000_000, trials: int = 1000,
              seed: int = 0) -> SimplicityVerdict:
    """`simple_under` over F_p and `sample_simple` over Q."""
    if alg.field.is_finite:
        return simple_under(alg, budget=budget)
    return sample_simple(alg, trials=trials, seed=seed)


def subfield_check(alg: Algebra, s: Subspace, budget: int = 1_000_000) -> bool:
    """Every nonzero element of the subspace has a two-sided inverse lying
    in the subspace again (so s, assumed closed under products, is a field).
    The scalar line is a field over every field, and needs no walk."""
    if s.rank == 1 and s.contains(alg.unit):
        return True
    if not alg.field.is_finite:
        raise ExactModeUnavailable("field check over Q needs the scalar line")
    _, points = projective_walk([s], budget,
                                "projective points of a field check")
    for v in points:
        inv = two_sided_inverse(alg, v)
        if inv is None or not s.contains(inv):
            return False
    return True


def center_is_field(alg: Algebra, central: CentralSubspaces | None = None,
                    budget: int = 1_000_000) -> bool:
    """Every nonzero central element has a two-sided inverse (necessarily
    central again, but membership is still checked)."""
    z = (central or nucleus_and_center(alg)).center
    return subfield_check(alg, z, budget)


# -- global structure checks -------------------------------------------------

def associator_defect(alg: Algebra) -> Subspace:
    """Span of all basis associators, eliminating the nonzero rows of
    `_np_defect` only; zero exactly for associative algebras."""
    defect = _nonzero_rows(alg._np_defect.reshape(-1, alg.dim))
    if alg.field.is_finite:
        from .linalg import np_to_subspace
        return np_to_subspace(alg.field, defect, alg.dim)
    return Subspace.span(alg.field, alg.dim, defect)


def is_associative(alg: Algebra) -> bool:
    """Whether every basis associator vanishes.  Over Q a nonzero associator
    of the reduction mod P (`Algebra._reduced`) proves A not associative;
    a zero one settles nothing, and the defect is then spanned in
    Fractions."""
    red = alg._reduced
    if red is not None and red._np_defect.any():
        return False
    return associator_defect(alg).is_zero


def is_ring_automorphism(alg: Algebra, m) -> bool:
    """Bijective, unit-fixing, multiplicative on all basis pairs."""
    if mat_inverse(alg.field, m) is None:
        return False
    if mat_vec(alg.field, m, alg.unit) != alg.unit:
        return False
    return _product_mismatch(alg, m) is None


# -- twisted centers -----------------------------------------------------------

def fixed_center(alg: Algebra, maps, twist=None) -> Subspace:
    """The x in N(A) with e_b x = x twist(e_b) for all b and M x = x for
    every map M: Z(A)^maps without a twist, and with one the sigma-twisted
    center of the crossed-product and Laurent center formulas.  One
    shrinking solve, smallest system first: the cached `Algebra._center`,
    or with a twist the kernel of its d^2 rows of `_twisted_commuter_rows`
    and then `_nuclear_part` of that, down to 0; then `_restrict` by the
    rows of every M - I, len(maps) d of them on the survivors only."""
    if twist is None:
        space = alg._center
    else:
        tw, s = _np_vectors(alg, twist)
        rows = _twisted_commuter_rows(alg, tw, s)
        space = _nuclear_part(alg, kernel(alg.field, _nonzero_rows(rows),
                                          alg.dim), 0)
    if not len(maps):
        return space
    m, s = _np_vectors(alg, maps)
    # m is s M: the rows are s (M - I)
    eye = np.eye(alg.dim, dtype=m.dtype)
    rows = np_mod(m - eye * s, alg.field.p).reshape(-1, alg.dim)
    return _restrict(alg, space, rows)
