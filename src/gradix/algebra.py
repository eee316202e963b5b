"""Finite-dimensional unital algebras given by structure constants.

An algebra of dimension d is its structure tensor C, where C[i, j, k]
is the coefficient of e_k in e_i * e_j; products of arbitrary vectors
expand bilinearly.  No associativity or commutativity is assumed
anywhere.  An algebra is built and checked on that tensor: products,
the unit and involution checks, inverses, the reduction mod P and every
contraction (associators, nuclei, centers, product and cocycle checks)
are one numpy code path for every field: over F_p on residues, in int64
while products fit and in Python ints past that (`linalg.np_dtype`);
over Q on Python ints, each array the rationals times the lcm of their
denominators and carried with that scale (`_np_vectors`, read back by
`_np_scalars`).  `make_algebra` takes the entries (i, j, k, c), meaning
e_i * e_j contains c * e_k, and sums them into the tensor once.  Over Q
most answers are first settled on `Algebra._reduced`, the reduction mod
one large prime.  Every elimination goes through `linalg.np_rref` (and
the solvers on it), whose p None is Q, so no routine here chooses an
eliminator by field; the one exception is the incremental Q join of
`_Module.spin`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ExactModeUnavailable, ValidationError
from .fields import FieldSpec, Scalar, _coerce_once
from .linalg import (Echelon, Subspace, Vec, coerce_matrix, identity_matrix,
                     kernel, np_dtype, np_kernel, np_mat_pow, np_matmul,
                     np_mod, np_rref, np_to_subspace, projective_walk,
                     solve_affine)

# The prime of the reduction that certifies answers over Q: the largest
# prime below 2^25, so Norton's test runs in int64 up to d = 8192; its
# draws plant the eigenvalue 0 and search F_P for none, so a large P costs
# them nothing.
REDUCTION_FIELD = FieldSpec(33554393)


@dataclass(frozen=True, eq=False)
class Algebra:
    """`_np_tensor[i, j, k]`, read-only, is `_np_scale` times the
    coefficient of e_k in e_i e_j: residues and scale 1 over F_p, Python
    ints and the lcm of the denominators over Q (`_canonical`).  Equality
    and hashing read the tensor's cells, whatever the subclass."""
    field: FieldSpec
    dim: int
    _np_tensor: np.ndarray
    _np_scale: int
    unit: Vec
    involution: tuple[tuple[Scalar, ...], ...] | None = None
    labels: tuple[str, ...] | None = None

    @cached_property
    def _key(self) -> tuple:
        t = self._np_tensor
        cells = tuple(t.flat) if t.dtype == object else t.tobytes()
        return (self.field, self.dim, cells, self._np_scale, self.unit,
                self.involution, self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # -- element helpers ------------------------------------------------

    def element(self, coords, coerce=None) -> Vec:
        coords = tuple(map(coerce or self.field.coerce, coords))
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        return coords

    def basis_vector(self, i: int) -> Vec:
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    def add_vec(self, x: Vec, y: Vec) -> Vec:
        f = self.field
        return tuple(f.add(a, b) for a, b in zip(x, y))

    def sub_vec(self, x: Vec, y: Vec) -> Vec:
        f = self.field
        return tuple(f.sub(a, b) for a, b in zip(x, y))

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    # -- cached derived tables -------------------------------------------

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
    def _associative(self) -> bool:
        """Whether every basis associator vanishes: `_np_defect` is all
        zero."""
        return not self._np_defect.any()

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
        a two-sided identity, the reduced tensor, the tensor mod P over the
        scale mod P, needs no checks."""
        f, p = REDUCTION_FIELD, REDUCTION_FIELD.p
        if (self.field.is_finite or self._np_scale % p == 0
                or any(c.denominator % p == 0 for c in self.unit)):
            return None
        tensor, _ = _canonical(f, self.dim, self._np_tensor % p,
                               self._np_scale)
        return Algebra(f, self.dim, tensor, 1,
                       tuple(f.coerce(c) for c in self.unit))

    # -- products ---------------------------------------------------------

    def multiply(self, x: Vec, y: Vec) -> Vec:
        """x y: x, then y, contracted with the structure tensor."""
        d, p = self.dim, self.field.p
        (a, sa), (b, sb) = _np_vectors(self, x), _np_vectors(self, y)
        left = np_mod(a @ self._np_tensor.reshape(d, d * d), p)  # x e_j
        return _np_scalars(self.field, np_mod(b @ left.reshape(d, d), p),
                           sa * sb * self._np_scale)


def make_algebra(field: FieldSpec, dim: int, entries, unit,
                 involution=None, labels=None) -> Algebra:
    """The algebra of the entries (i, j, k, c), e_i e_j holding c e_k,
    checked, unit and involution too: the one constructor of input from
    outside.  The scalars are coerced in input order, each distinct one
    once (`fields._coerce_once`), and repeated indices are summed into the
    tensor by one `np.add.at`."""
    if dim < 1:
        raise ValidationError(f"algebra dim must be at least 1, got {dim}")
    coerce = _coerce_once(field)
    idx, vals = [], []
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValidationError(f"tensor index {(i, j, k)} out of range for dim {dim}")
        idx.append((i, j, k))
        vals.append(coerce(c))
    unit = tuple(map(coerce, unit))
    if len(unit) != dim:
        raise DimensionMismatch("unit length != dim")
    if involution is not None:
        involution = tuple(tuple(map(coerce, row)) for row in involution)
        if len(involution) != dim or any(len(r) != dim for r in involution):
            raise DimensionMismatch("involution matrix shape != dim x dim")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise DimensionMismatch("labels length != dim")

    dtype = np_dtype(field.p, dim)
    tensor, scale = np.zeros((dim,) * 3, dtype=dtype), 1
    if vals:
        if not field.is_finite:
            scale = math.lcm(*(c.denominator for c in vals))
            vals = [c.numerator * (scale // c.denominator) for c in vals]
        np.add.at(tensor, tuple(np.array(idx).T), np.array(vals, dtype=dtype))
    alg = _algebra(Algebra, field, dim, np_mod(tensor, field.p), scale, unit,
                   involution, labels)
    _check_unit_and_involution(alg)
    return alg


def _canonical(field: FieldSpec, dim: int, tensor, scale: int):
    """A tensor that carries the scale `scale` as an algebra stores it,
    read-only in the dtype of rows of width dim: over F_p, where the tensor
    must hold residues, times the inverse of the scale, with scale 1; over
    Q divided by the gcd of tensor and scale, which leaves the lcm of the
    denominators."""
    p = field.p
    if p is not None:
        out = np.asarray(tensor).astype(np_dtype(p, dim))
        if scale != 1:
            out, scale = out * pow(scale, -1, p) % p, 1
    else:
        out = np.array(tensor, dtype=object)
        if scale != 1:
            g = math.gcd(scale, np.gcd.reduce(out, axis=None))
            out, scale = out // g, scale // g
    out.flags.writeable = False
    return out, scale


def _algebra(cls, field: FieldSpec, dim: int, tensor, scale: int, unit,
             involution=None, labels=None, **fields) -> Algebra:
    """The algebra of a tensor that carries the scale `scale`, an instance
    of cls with its own `fields` (`crossed.CrossedProduct` and its system);
    unit, involution and labels are tuples already coerced, and correct by
    the caller's construction: nothing is checked."""
    tensor, scale = _canonical(field, dim, tensor, scale)
    return cls(field, dim, tensor, scale, unit, involution, labels, **fields)


def _check_unit_and_involution(alg: Algebra) -> None:
    """L_u = R_u = I and S u = u as one product, of u with the operators
    v -> e_j v, v -> v e_j (`Algebra._np_ops`) and S^T; then S^2 = I and
    S(xy) = S(y) S(x) on all basis pairs, raising at the first failure."""
    p, d = alg.field.p, alg.dim
    u, su = _np_vectors(alg, alg.unit)
    ops = alg._np_ops.reshape(2, d, d * d)
    if alg.involution is not None:
        m, sm = _np_vectors(alg, alg.involution)
        ops = np.concatenate([*ops, m.T], axis=1)
    # in the tensor's dtype: a float64 round trip costs more than 2 d^3
    prods = np_mod(u @ ops, p).reshape(-1)
    eye = np.eye(d, dtype=u.dtype)
    # L_u and R_u carry the scale su times the tensor's, S u su sm
    bad = (prods[:2 * d * d].reshape(2, d, d)
           != np_mod(eye * (su * alg._np_scale), p)).any(axis=(0, 1))
    if bad.any():
        raise ValidationError("unit is not a two-sided identity at basis "
                              f"{int(np.argmax(bad))}")
    if alg.involution is None:
        return
    if (prods[2 * d * d:] != np_mod(u * sm, p)).any():
        raise ValidationError("involution does not fix the unit")
    if (np_mod(m @ m, p) != np_mod(eye * sm * sm, p)).any():
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
    return _cleared(vecs)


def _cleared(vecs) -> tuple[np.ndarray, int]:
    """Rationals (a nested sequence) times the lcm s of their
    denominators, as an array of Python ints, and s."""
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
    Over Q the rows may be any nonzero multiple of the equations.  When
    every a solves them (an associative A's slots, a commutative A's
    commuter), the answer is `space` itself."""
    if space.is_zero:
        return space
    x, _ = _np_vectors(alg, space.basis)
    eqs = np_matmul(rows, x.T, alg.field.p)
    coords = kernel(alg.field, _nonzero_rows(eqs), space.rank)
    return space if coords.is_full else _combine(space, coords)


def _nuclear_part(alg: Algebra, space: Subspace, stop: int) -> Subspace:
    """The x of `space` in N(A): each associator slot (x, -, -),
    (-, x, -), (-, -, x) imposed on the survivors of the slots before it
    (`_restrict` by the d^3 rows of `_np_defect` in that slot), stopping
    once at most `stop` of them survive.  An associative A
    (`Algebra._associative`, which a crossed product reads off T without
    building its own defect) needs no slot."""
    d = alg.dim
    if space.rank <= stop or alg._associative:
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
    none when A is associative (`Algebra._associative`): every associator
    is a combination of basis ones, so then every vector is nuclear."""
    vecs = list(vecs)
    for v in vecs:
        if len(v) != alg.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {alg.dim}")
    if alg._associative:
        return [True] * len(vecs)
    defect, d, p = alg._np_defect, alg.dim, alg.field.p
    x = _np_vectors(alg, vecs)[0].reshape(-1, d)
    bad = np.zeros(len(x), dtype=bool)
    for s in range(3):
        slot = np_matmul(x, np.moveaxis(defect, s, 0).reshape(d, -1), p)
        bad |= slot.any(axis=1)
    return (~bad).tolist()


CENTRAL_NAMES = ("left", "middle", "right", "nucleus", "commuter", "center")


def _central(alg: Algebra, names) -> dict:
    """The named central subspaces.  Left, middle, right and the commuter
    are one kernel each, of their blocks of `_nucleus_blocks`.  The others
    are solved on the survivors of a space that holds them: the nucleus is
    `_restrict` of the left nucleus by the middle and right rows, and the
    center `_restrict` of the nucleus by the commuter rows.  The unit lies
    in all six, so a space of rank at most 1 is the unit line, and so is
    every space inside it, with no solve: the nucleus once a slot has rank
    1, the center once the nucleus or the commuter has.  `names` must hold,
    with the nucleus, the three slots, and with the center, the nucleus
    and the commuter."""
    left, middle, right, comm = _nucleus_blocks(alg)
    out = {n: kernel(alg.field, rows, alg.dim)
           for n, rows in zip(("left", "middle", "right", "commuter"),
                              (left, middle, right, comm)) if n in names}

    def on_survivors(holders, rows):
        line = min((out[n] for n in holders), key=lambda s: s.rank)
        if line.rank <= 1:
            return line
        return _restrict(alg, out[holders[0]], rows)
    if "nucleus" in names:
        out["nucleus"] = on_survivors(("left", "middle", "right"),
                                      np.concatenate([middle, right]))
    if "center" in names:
        out["center"] = on_survivors(("nucleus", "commuter"), comm)
    return {n: out[n] for n in names}


def nucleus_and_center(alg: Algebra) -> CentralSubspaces:
    """The nuclei, the commuter and the center (`_central`).  Over Q each
    of the six that has rank 1 in the reduction mod P (`Algebra._reduced`)
    is the line of the unit, which lies in all six; only the others are
    solved, on the integer rows of the same blocks.  In the reduction a
    space has at least the rank of every space inside it, so the spaces
    left to solve, of rank above 1 there, hold every space that holds one
    of them: the nucleus comes with the three slots, the center with the
    nucleus and the commuter, and one `_central` serves both passes."""
    out = {}
    red = alg._reduced
    if red is not None:
        unit = np.array([alg.unit], dtype=object)
        unit_line = np_to_subspace(alg.field, unit, alg.dim)
        out = {n: unit_line for n, space in _central(red, CENTRAL_NAMES).items()
               if space.rank == 1}
    rest = [n for n in CENTRAL_NAMES if n not in out]
    if rest:
        out.update(_central(alg, rest))
    return CentralSubspaces(**out)


# -- inverses ----------------------------------------------------------------

def inverse_system(alg: Algebra, r: Vec):
    """Equations for s with r s = 1 and s r = 1, as (rows, rhs): the rows of
    the matrices of v -> r v and v -> v r (r times `Algebra._np_ops`, in
    its dtype), over the unit twice, both sides times the scale of the
    rows (over Q integer rows)."""
    d, p = alg.dim, alg.field.p
    x, s = _np_vectors(alg, r)
    scale = alg.field.coerce(s * alg._np_scale)
    rows = np_mod(x @ alg._np_ops.reshape(2, d, d * d), p).reshape(2 * d, d)
    rows = rows.tolist()
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


# -- invariant subspaces -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Module:
    """F^d as a module for the algebra generated by `gens`, a read-only
    stack of d x d matrices, of which every invariant-subspace question is
    asked.  The module of an algebra (`_module`) stacks L_{e_j}, R_{e_j},
    then the extra maps, in the dtype of the structure tensor, over Q each
    a nonzero multiple of its map, which has the same invariant subspaces;
    `left` and `maps` read that layout, here and nowhere else."""
    field: FieldSpec
    gens: np.ndarray

    def __post_init__(self):
        self.gens.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.gens.shape[1]

    @property
    def left(self) -> np.ndarray:
        """L_{e_j}, the first d generators."""
        return self.gens[:self.dim]

    @property
    def maps(self) -> np.ndarray:
        """The extra maps, after the L_{e_j} and the R_{e_j}."""
        return self.gens[2 * self.dim:]

    def spin(self, rows) -> tuple[np.ndarray, list[int]]:
        """The frontier spin of the MeatAxe (Parker 1984; Holt & Rees 1994):
        the least invariant subspace holding the vectors `rows`, as its
        RREF rows in pivot order and their pivots.  It stops once the span
        is all of F^d or stops growing.  Each round maps only the
        directions that the last round added (`join`): over F_p the images
        reduced against the echelon so far, one `np_rref` call per round;
        over Q, on cleared denominators, the images that raise the rank of
        an `Echelon`, one at a time: a batched join through `np_rref`'s Q
        regime measured 6-7 times slower on Q sampling (`sample_simple` on
        M_2(Q) x M_2(Q), 1000 trials: 2.0-2.5 s against 0.35 s), as its
        dense products of Fraction arrays cannot skip zero coefficients as
        `Echelon.add` does.  An entry of the F_p reduction sums one
        residue product per pivot, at most one per column: inside
        `np_dtype` for a closure, and `_norton_fits` for the spins of
        Norton's test."""
        p, gens = self.field.p, self.gens
        d = gens.shape[1]
        if p is not None:
            ech, piv = np_rref(np.array(rows, gens.dtype).reshape(-1, d), p)
            frontier = ech

            def join(vecs):
                nonlocal ech, piv
                new, npiv = np_rref(vecs - vecs[:, piv] @ ech, p)
                ech = np.concatenate([(ech - ech[:, npiv] @ new) % p, new])
                piv = piv + npiv
                return new
        else:
            span = Echelon(self.field, d)

            def join(vecs):
                return np.array([v for v in vecs if span.add(v)],
                                dtype=object).reshape(-1, d)
            frontier = join(_cleared(rows)[0].reshape(-1, d))
        rank = len(frontier)
        while rank < d:
            images = (gens @ frontier[:, None, :, None]).reshape(-1, d)
            frontier = join(np_mod(images, p))
            if not len(frontier):
                break
            rank += len(frontier)
        if p is not None:
            return ech[np.argsort(piv)], sorted(piv)
        return np.array(span.rows, dtype=object).reshape(-1, d), span.pivots


def _module(alg: Algebra, maps=()) -> _Module:
    """The module of A under the L_{e_j}, the R_{e_j} and the extra maps
    (matrices, or one array stack): built once per verdict."""
    gens = alg._np_ops
    if len(maps):
        gens = np.concatenate([gens, _np_vectors(alg, maps)[0]])
    return _Module(alg.field, gens)


def ideal_closure(alg: Algebra, generators, maps=()) -> Subspace:
    """Least subspace containing the generators that is closed under left and
    right multiplication by the whole algebra (and under the extra linear
    maps, when given)."""
    rows, piv = _module(alg, maps).spin([alg.element(v) for v in generators])
    return Subspace(alg.field, alg.dim, tuple(map(tuple, rows.tolist())),
                    tuple(piv))


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


def _norton_fits(p: int, d: int) -> bool:
    """int64 holds the products of `_norton_irreducible` over F_p: sums of
    d residue products, on vectors and matrices of width d."""
    return d * (p - 1) ** 2 < 2 ** 63


def _commutant_field(module: _Module, unit: Vec,
                     center: Subspace) -> int | None:
    """The dimension k of the commutant C = End_M(A) of the associative
    algebra M generated by the module of A (`_module`) when C is a field,
    else None; `unit` and `center` are A's unit and Z(A).  Only the
    module's extra maps are imposed here.

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
    `center` as the c with [L_c, T] = 0 for the extra maps T
    only, and nothing is solved for the L_{e_j}, R_{e_j}.  The c form a
    unital subalgebra of Z(A), so `_is_field` decides whether C is a
    field."""
    p, d = module.field.p, module.dim
    cbasis = np.array(center.basis, dtype=module.gens.dtype).reshape(-1, d)
    extra = module.maps
    if len(cbasis) > 1 and len(extra):
        left = module.left.reshape(d, d * d)
        ls = np_matmul(cbasis, left, p).reshape(-1, 1, d, d)  # L_c per basis c
        comm = np_matmul(ls, extra, p) - np_matmul(extra, ls, p)
        rows = _nonzero_rows(comm.reshape(len(cbasis), -1).T)
        cbasis = np_kernel(rows, p) @ cbasis % p
    return len(cbasis) if _is_field(module, unit, cbasis) else None


def _is_field(module: _Module, unit: Vec, rows) -> bool:
    """Whether the unital subalgebra S of Z(A) with basis the rows, over
    F_p with d (p - 1)^2 < 2^63 (`_norton_fits`), is a field.  S is
    commutative and associative, as Z(A) is, so it is a field exactly when
    its Frobenius x -> x^p, an F_p-linear map of S, is injective and fixes
    only the prime field (Berlekamp 1967): injective says S has no
    nilpotent, so S is a product of fields F_{p^r}, and each factor adds one
    dimension to the fixed points.  x^p is L_x^p applied to 1, as x is
    nuclear; its coordinates on the RREF basis of S are its entries at the
    pivot columns.  The L_x are read off the module of A (`_module`), and
    `unit` is A's unit."""
    p, d = module.field.p, module.dim
    k = len(rows)
    if k <= 1:
        return True
    basis, piv = np_rref(np.asarray(rows).reshape(k, d), p)
    left = np.asarray(module.left, dtype=np.int64).reshape(d, d * d)
    xs = np_matmul(basis.astype(np.int64), left, p).reshape(-1, d, d)
    unit = np.array([int(c) % p for c in unit], dtype=np.int64)
    frob = (np_mat_pow(xs, p, p) @ unit % p)[:, piv]  # rows: x_j^p in S
    return (len(np_rref(frob, p)[0]) == k and
            len(np_rref(frob - np.eye(k, dtype=frob.dtype), p)[0]) == k - 1)


# draws before Norton's test gives up; then the sweep decides over F_p,
# and sampling over Q
NORTON_DRAWS = 16


def _norton_irreducible(module: _Module, unit: Vec,
                        center: Subspace) -> bool | None:
    """Norton's irreducibility test (Parker's MeatAxe, in the form of Holt &
    Rees, "Testing modules for irreducibility", 1994) over F_p: whether the
    module of A (`_module`) is irreducible, that is A under the associative
    algebra M its generators generate; None when no draw decides.  `unit`
    and `center` are A's unit and Z(A).

    The commutant C = End_M(A) must be a field of some dimension k, or a
    singular X in C has a proper invariant kernel (`_commutant_field`); if
    k = d, A = C is a field and irreducible.  Otherwise each draw x in M
    plants the eigenvalue 0: x <- x - L_{x(1)}, still in M as the L_{e_j}
    are generators, sends the unit to 0, so ker x holds the k-dimensional
    C 1 (C is the L_c, c in the center; `_commutant_field`).  The draw
    decides when dim ker x = k, that is ker x = C 1.  Let U be a proper
    nonzero invariant subspace.  U holds no c 1 with c != 0 in C, or
    c^-1 U would be one too and hold 1, whose spin holds every L_a 1 = a
    and is all of A.  So ker x injects into A / U, where the kernel of x
    is then at least k-dimensional, and U's annihilator in the dual,
    invariant under the transposes, holds the whole k-dimensional kernel
    of x^T: the spin of any nonzero w in it is proper.  Conversely, a
    proper spin of w under the transposes has a proper nonzero invariant
    annihilator in A.  So the dual spin of one w decides both ways, and a
    draw with a larger kernel is passed over.  The draws x <- x y + y,
    y a random combination of the generators, come from a fixed seed, so
    the answer is deterministic.  The caller checks d (p - 1)^2 < 2^63
    (`_norton_fits`), under which it runs in int64."""
    p, d = module.field.p, module.dim
    module = _Module(module.field, np.asarray(module.gens, dtype=np.int64))
    k = _commutant_field(module, unit, center)
    if k is None:
        return False
    if k == d:
        return True
    rng = random.Random(0)
    u = np.array([int(c) % p for c in unit], dtype=np.int64)
    gens = module.gens
    dual = _Module(module.field, gens.transpose(0, 2, 1))

    def draw():
        coeffs = np.array([rng.randrange(p) for _ in gens], dtype=np.int64)
        return (coeffs[:, None, None] * gens % p).sum(axis=0) % p

    x = draw()
    for _ in range(NORTON_DRAWS):
        y = draw()
        x = (np_matmul(x, y, p) + y) % p
        x = (x - np.tensordot(x @ u % p, module.left, 1)) % p  # x(1) = 0
        w = np_kernel(x.T, p)
        if len(w) == k:
            return len(dual.spin(w[:1])[0]) == d
    return None


def _exact_verdict(alg: Algebra, maps, spaces, budget: int, what: str,
                   irreducible: bool | None = None) -> SimplicityVerdict:
    """The exact verdict of every simplicity notion: is A irreducible under
    the L_{e_j}, R_{e_j} and the extra maps?  The sweep is the
    `projective_walk` of the subspaces, refused past the budget before
    anything runs.
    Past the gate below, `_norton_irreducible` decides first, the one test
    of irreducibility, which the reduction of an algebra over Q runs too.
    An irreducible A is then decided without the sweep, which otherwise
    runs, also when no draw decides, to name the same first witness.  The
    crossover is measured: on the graded crossed products of H and M_2 by
    C2, C3 and C4 over F_3 (d = 8 to 16), one Norton call, a kernel and a
    dual spin per draw, costs about as much as 2.1-2.8 closures of the
    first 20 sweep points (median 2.5, on a 2-core VM).  The gate at d
    points was set when it cost 8-10.
    A caller that already knows the answer, as the crossed-product theorem
    gives it, passes it as `irreducible`, which stands in for Norton's
    test: True is the simple verdict, with no module built, and False runs
    the sweep alone, to name the witness."""
    if not alg.field.is_finite:
        raise ExactModeUnavailable("exact enumeration needs a finite field")
    d = alg.dim
    total, points = projective_walk(spaces, budget, what)
    module = None if irreducible else _module(alg, maps)
    # A reducible A pays for the test and for the sweep, so short sweeps
    # run alone: up to d points, as of crossed products with a
    # one-dimensional T, and at d <= 4 up to d^2 points.  The second bound
    # keeps the smallest requests on the sweep alone; the benchmark's tests
    # pin the eliminations of the group algebra of C2 over F_2 (d = 2, 3
    # points).  Whether a lower gate pays at d <= 4 is not measured.
    if (irreducible is None and total > (d if d >= 5 else d * d)
            and _norton_fits(alg.field.p, d)):
        irreducible = _norton_irreducible(module, alg.unit, alg._center)
    if irreducible:
        return SimplicityVerdict(True, None, "exact", total)
    for checked, pt in enumerate(points, 1):
        if len(module.spin([pt])[0]) < d:
            return SimplicityVerdict(False, pt, "exact", checked)
    if irreducible is False:
        raise RuntimeError("the irreducibility test found A reducible but "
                           "the sweep found no proper invariant ideal")
    return SimplicityVerdict(True, None, "exact", total)


def _reduction_irreducible(alg: Algebra, maps) -> bool:
    """Whether `_norton_irreducible`, the test that exact verdicts run,
    proves the reduction mod P of A over Q, with the maps reduced too,
    irreducible.  True proves A simple under the maps (see
    `Algebra._reduced`); False, reducible or undecided, settles nothing.
    Maps with a denominator divisible by P do not reduce, and give
    False."""
    red = alg._reduced
    if red is None or not _norton_fits(red.field.p, red.dim):
        return False
    try:
        maps = [coerce_matrix(red.field, m, red.dim) for m in maps]
    except ZeroDivisionError:
        return False
    return _norton_irreducible(_module(red, maps), red.unit,
                               red._center) is True


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
    (`_reduction_irreducible`, Norton's test at every d); an irreducible
    reduction proves A simple, and every sample would find a full closure,
    so the verdict is the "randomized" simple one with `checked = trials`,
    drawn without sampling.  Otherwise, and always over F_p, the samples
    are drawn, each spun in the module of A under the maps."""
    if _reduction_irreducible(alg, maps):
        return SimplicityVerdict(True, None, "randomized", trials)
    module = _module(alg, maps)
    rng = random.Random(seed)
    for t in range(trials):
        v = random_element(alg, rng)
        if len(module.spin([v])[0]) < alg.dim:
            return SimplicityVerdict(False, v, "randomized", t + 1)
    return SimplicityVerdict(True, None, "randomized", trials)


def is_simple(alg: Algebra, budget: int = 1_000_000, trials: int = 1000,
              seed: int = 0) -> SimplicityVerdict:
    """`simple_under` over F_p and `sample_simple` over Q."""
    if alg.field.is_finite:
        return simple_under(alg, budget=budget)
    return sample_simple(alg, trials=trials, seed=seed)


def subfield_check(alg: Algebra, s: Subspace, budget: int = 1_000_000) -> bool:
    """Whether s, a unital subalgebra of Z(A), is a field: whether every
    nonzero element of s has a two-sided inverse lying in s again.  Z(A),
    Z_*(A) and Z(T)^G are such subalgebras.  Over F_p with
    d (p - 1)^2 < 2^63 (`_norton_fits`) it is `_is_field`, Berlekamp's
    test, which never walks and never raises `BudgetExceeded`; over Q, for
    larger p, and for a subspace that misses the unit, it is the walk
    `_field_walk`, refused past the budget.  The scalar line is a field
    over every field, and either way needs no walk.

    The two answer the same question.  Let S be a unital subalgebra of
    Z(A) and s in S with a two-sided inverse in A.  s is nuclear, so
    s y = 0 gives y = s^-1 (s y) = 0: multiplication by s is injective on
    S, so it is bijective, some y in S has s y = 1, and y = s^-1, as the
    inverse of a nuclear element is unique.  So every nonzero element of S
    is invertible in S exactly when S is a field."""
    f = alg.field
    if not (f.is_finite and _norton_fits(f.p, alg.dim)
            and s.contains(alg.unit)):
        return _field_walk(alg, s, budget)
    return s.rank == 1 or _is_field(_module(alg), alg.unit, s.basis)


def _field_walk(alg: Algebra, s: Subspace, budget: int) -> bool:
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
    central again, but membership is still checked), by `_field_walk`.
    `subfield_check` answers the same without a walk, but this check
    keeps the walk for now: the benchmark's tests pin the `np_rref` calls
    of a graded request on the group algebra of C2 over F_2 at 57, and
    this walk's inverse solves make 12 of them, so moving it waits for a
    change of the benchmark that re-measures the pin."""
    z = (central or nucleus_and_center(alg)).center
    return _field_walk(alg, z, budget)


# -- global structure checks -------------------------------------------------

def associator_defect(alg: Algebra) -> Subspace:
    """Span of all basis associators, eliminating the nonzero rows of
    `_np_defect` only; zero exactly for associative algebras."""
    defect = _nonzero_rows(alg._np_defect.reshape(-1, alg.dim))
    return np_to_subspace(alg.field, defect, alg.dim)


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
    """Bijective (of rank d, by `np_rref`), unit-fixing (m u = u, one
    product) and multiplicative on all basis pairs (`_product_mismatch`)."""
    p, (mm, s) = alg.field.p, _np_vectors(alg, m)
    u, _ = _np_vectors(alg, alg.unit)
    # mm @ u carries the scales of both factors, s u the same
    return (len(np_rref(mm, p)[1]) == alg.dim
            and (np_matmul(mm, u, p) == np_mod(u * s, p)).all()
            and _product_mismatch(alg, m) is None)


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
