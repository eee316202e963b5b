"""Finite-dimensional unital algebras given by structure constants.

An algebra of dimension d stores its multiplication sparsely as entries
(i, j, k, c) meaning e_i * e_j contains c * e_k; products of arbitrary
vectors expand bilinearly.  No associativity or commutativity is assumed
anywhere.  Dense per-basis operator tables are cached lazily for the
closure loops, and over F_p those live in numpy (exact: residues held in
int64 while products fit, Python ints past that; see `linalg.np_dtype`).
Over Q the same numpy path runs on `Algebra._reduced`, the reduction mod
one large prime, which settles most answers on one side; the Fraction path
runs only for what that reduction cannot settle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ExactModeUnavailable, ValidationError
from .fields import FieldSpec, Scalar
from .linalg import (Subspace, Vec, coerce_matrix, identity_matrix, kernel,
                     mat_inverse, mat_vec, np_dtype, np_matmul,
                     projective_walk, solve_affine)

# The prime of the reduction that certifies answers over Q: the largest
# prime below 2^25, so the density test runs in int64 up to d = 90.
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
    def _by_pair(self) -> dict:
        table: dict[tuple[int, int], list] = {}
        for i, j, k, c in self.mult:
            table.setdefault((i, j), []).append((k, c))
        return table

    @cached_property
    def product_table(self) -> tuple:
        """Dense e_i * e_j vectors."""
        out = []
        f = self.field
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                v = [f.zero] * self.dim
                for k, c in self._by_pair.get((i, j), ()):
                    v[k] = f.add(v[k], c)
                row.append(tuple(v))
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def _np_tensor(self) -> np.ndarray:
        """C[i, j, k] over F_p, in the dtype of rows of width dim."""
        assert self.field.is_finite
        c = np.zeros((self.dim,) * 3, dtype=np_dtype(self.field.p, self.dim))
        for i, j, k, s in self.mult:
            c[i, j, k] = s % self.field.p
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
        (e_i, e_j, e_k) over F_p: (e_i e_j) e_k - e_i (e_j e_k), each side
        one (d^2 x d) @ (d x d^2) `np_matmul` of the structure tensor."""
        c, d, p = self._np_tensor, self.dim, self.field.p
        flat = c.reshape(d * d, d)
        first = np_matmul(flat, c.reshape(d, d * d), p)      # [(i, j), (k, l)]
        second = np_matmul(flat, c.transpose(1, 0, 2).reshape(d, d * d), p)
        second = second.reshape((d,) * 4).transpose(2, 0, 1, 3)  # [j,k,i,l]
        return (first.reshape((d,) * 4) - second) % p

    @cached_property
    def _associator_triples(self) -> list:
        """Dense table of the basis associators (e_i, e_j, e_k) for the
        generic path."""
        prod = self.product_table
        return [[[self.sub_vec(self.right_by_basis(k, prod[i][j]),
                               self.left_by_basis(i, prod[j][k]))
                  for k in range(self.dim)]
                 for j in range(self.dim)]
                for i in range(self.dim)]

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
        the reduction proves A not associative."""
        if self.field.is_finite:
            return None
        try:
            return make_algebra(REDUCTION_FIELD, self.dim, self.mult, self.unit)
        except ZeroDivisionError:
            return None

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

    def left_by_basis(self, j: int, v) -> Vec:
        """e_j * v"""
        f = self.field
        out = [f.zero] * self.dim
        for m in range(self.dim):
            a = v[m]
            if not a:
                continue
            for k, c in self._by_pair.get((j, m), ()):
                out[k] = f.add(out[k], f.mul(a, c))
        return tuple(out)

    def right_by_basis(self, j: int, v) -> Vec:
        """v * e_j"""
        f = self.field
        out = [f.zero] * self.dim
        for m in range(self.dim):
            a = v[m]
            if not a:
                continue
            for k, c in self._by_pair.get((m, j), ()):
                out[k] = f.add(out[k], f.mul(a, c))
        return tuple(out)

    def star(self, v: Vec) -> Vec:
        if self.involution is None:
            raise ValidationError("algebra has no involution")
        return mat_vec(self.field, self.involution, v)


def make_algebra(field: FieldSpec, dim: int, entries, unit,
                 involution=None, labels=None) -> Algebra:
    """Coerce, canonicalize, and validate a structure-constant algebra."""
    if dim < 1:
        raise ValidationError(f"algebra dim must be at least 1, got {dim}")
    acc: dict[tuple[int, int, int], Scalar] = {}
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValidationError(f"tensor index {(i, j, k)} out of range for dim {dim}")
        c = field.coerce(c)
        key = (i, j, k)
        prev = acc.get(key, field.zero)
        acc[key] = field.add(prev, c)
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

    alg = Algebra(field, dim, mult, unit, involution, labels)
    for j in range(dim):
        e = alg.basis_vector(j)
        if alg.multiply(alg.unit, e) != e or alg.multiply(e, alg.unit) != e:
            raise ValidationError(f"unit is not a two-sided identity at basis {j}")
    if involution is not None:
        _check_involution(alg)
    return alg


def _check_involution(alg: Algebra) -> None:
    if alg.star(alg.unit) != alg.unit:
        raise ValidationError("involution does not fix the unit")
    for i in range(alg.dim):
        if alg.star(alg.star(alg.basis_vector(i))) != alg.basis_vector(i):
            raise ValidationError("involution does not square to the identity")
    bad = _product_mismatch(alg, alg.involution, reverse=True)
    if bad is not None:
        raise ValidationError(f"involution does not reverse products at {bad}")


def _contractible(alg: Algebra) -> bool:
    """Whether contractions of the structure tensor run in numpy: over F_p
    while `Algebra._np_tensor` is int64, so that a sum of d residue
    products fits.  Each such contraction keeps a generic loop, for Q and
    for the object dtype, which is also its reference in the tests."""
    return alg.field.is_finite and alg._np_tensor.dtype != object


def _np_vectors(alg: Algebra, vecs) -> np.ndarray:
    """A nested sequence of vectors (or matrices) as an array of residues
    in the dtype of `Algebra._np_tensor`."""
    return np.array(vecs, dtype=alg._np_tensor.dtype) % alg.field.p


def _np_left(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The matrices of v -> x v, one per vector of the stack x (last axis)."""
    return np.swapaxes(np.tensordot(x, alg._np_tensor, 1), -1, -2) % alg.field.p


def _np_right(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The matrices of v -> v x, one per vector of the stack x (last axis)."""
    c = alg._np_tensor.transpose(1, 0, 2)
    return np.swapaxes(np.tensordot(x, c, 1), -1, -2) % alg.field.p


def _product_mismatch(alg: Algebra, m, reverse: bool = False):
    """The first basis pair (i, j), in row-major order, with m(e_i e_j)
    other than m(e_i) m(e_j), or m(e_j) m(e_i) when `reverse`; None when
    there is none.  Over F_p, while int64 holds the products, all d^2 pairs
    are compared at once in numpy."""
    if not _contractible(alg):
        return _product_mismatch_generic(alg, m, reverse)
    p, c = alg.field.p, alg._np_tensor
    mm = _np_vectors(alg, m)
    images = np.tensordot(c, mm, axes=([2], [1])) % p   # [i, j]: m(e_i e_j)
    half = np.tensordot(mm, c, axes=([0], [0])) % p     # [i, b]: m(e_i) e_b
    prods = np.tensordot(mm, half, axes=([0], [1])) % p  # [j, i]: m(e_i) m(e_j)
    if not reverse:
        prods = prods.transpose(1, 0, 2)
    bad = np.argwhere((images != prods).any(axis=2))
    return (int(bad[0, 0]), int(bad[0, 1])) if len(bad) else None


def _product_mismatch_generic(alg: Algebra, m, reverse: bool):
    f = alg.field
    images = [mat_vec(f, m, alg.basis_vector(j)) for j in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = (images[j], images[i]) if reverse else (images[i], images[j])
            if mat_vec(f, m, alg.product_table[i][j]) != alg.multiply(x, y):
                return i, j
    return None


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


def _nucleus_blocks_np(alg: Algebra):
    """The left, middle, right and commuter equations over F_p, nonzero rows
    only: of the 3 d^3 + d^2 rows most are zero, and every kernel would copy
    and reduce them before `np_rref` dropped them."""
    c = alg._np_tensor
    d = alg.dim
    p = alg.field.p
    defect = alg._np_defect
    left = defect.transpose(1, 2, 3, 0).reshape(d ** 3, d)
    middle = defect.transpose(0, 2, 3, 1).reshape(d ** 3, d)
    right = defect.transpose(0, 1, 3, 2).reshape(d ** 3, d)
    comm = ((c - c.transpose(1, 0, 2)) % p).transpose(1, 2, 0).reshape(d * d, d)
    return tuple(b[b.any(axis=1)] for b in (left, middle, right, comm))


def _nucleus_blocks_generic(alg: Algebra):
    d = alg.dim
    trip = alg._associator_triples
    left, middle, right = [], [], []
    for a in range(d):
        for b in range(d):
            for l in range(d):
                left.append([trip[i][a][b][l] for i in range(d)])
                middle.append([trip[a][i][b][l] for i in range(d)])
                right.append([trip[a][b][i][l] for i in range(d)])
    comm = []
    prod = alg.product_table
    for j in range(d):
        for l in range(d):
            comm.append([alg.field.sub(prod[i][j][l], prod[j][i][l])
                         for i in range(d)])
    return left, middle, right, comm


def nucleus_equation_rows(alg: Algebra) -> list:
    """Rows whose kernel is the nucleus; reused as membership constraints."""
    if alg.field.is_finite:
        left, middle, right, _ = _nucleus_blocks_np(alg)
        return np.concatenate([left, middle, right]).tolist()
    left, middle, right, _ = _nucleus_blocks_generic(alg)
    return left + middle + right


def nuclear_mask(alg: Algebra, vecs) -> list[bool]:
    """Per vector, whether it lies in the nucleus, tested on the equations
    of `nucleus_equation_rows` without solving them.  Over F_p the
    associators (v, e_j, e_k), (e_i, v, e_k) and (e_i, e_j, v) of all the
    vectors at once are one `np_matmul` with `_np_defect` per slot."""
    vecs = list(vecs)
    for v in vecs:
        if len(v) != alg.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {alg.dim}")
    f = alg.field
    if f.is_finite:
        defect = alg._np_defect
        x = np.array(vecs, dtype=defect.dtype).reshape(-1, alg.dim) % f.p
        bad = np.zeros(len(x), dtype=bool)
        for s in range(3):
            slot = np_matmul(x, np.moveaxis(defect, s, 0).reshape(alg.dim, -1),
                             f.p)
            bad |= slot.any(axis=1)
        return (~bad).tolist()
    rows = nucleus_equation_rows(alg)
    return [not any(mat_vec(f, rows, v)) for v in vecs]


def in_nucleus(alg: Algebra, v: Vec) -> bool:
    """`nuclear_mask` of the one vector v."""
    return nuclear_mask(alg, [v])[0]


def _central_np(alg: Algebra) -> CentralSubspaces:
    f = alg.field
    left, middle, right, comm = _nucleus_blocks_np(alg)
    stack = lambda blocks: kernel(f, np.concatenate(blocks), alg.dim)
    return CentralSubspaces(
        left=stack([left]), middle=stack([middle]), right=stack([right]),
        nucleus=stack([left, middle, right]),
        commuter=stack([comm]),
        center=stack([left, middle, right, comm]))


def nucleus_and_center(alg: Algebra) -> CentralSubspaces:
    """The nuclei, the commuter and the center, each as the kernel of its
    equations.  Over Q each of the six that has rank 1 in the reduction mod
    P (`Algebra._reduced`) is the line of the unit, which lies in all six;
    only the others are solved in Fractions."""
    f = alg.field
    d = alg.dim
    if f.is_finite:
        return _central_np(alg)
    red = alg._reduced
    mod_p = _central_np(red) if red is not None else None
    names = ("left", "middle", "right", "nucleus", "commuter", "center")
    unit_line = Subspace.span(f, d, [alg.unit])
    out = {n: unit_line for n in names
           if mod_p is not None and getattr(mod_p, n).rank == 1}
    if len(out) < len(names):
        left, middle, right, comm = _nucleus_blocks_generic(alg)
        systems = {"left": left, "middle": middle, "right": right,
                   "nucleus": left + middle + right, "commuter": comm,
                   "center": left + middle + right + comm}
        for n in names:
            if n not in out:
                out[n] = kernel(f, systems[n], d)
    return CentralSubspaces(**out)


# -- inverses ----------------------------------------------------------------

def inverse_system(alg: Algebra, r: Vec):
    """Equations for s with r s = 1 and s r = 1, as (rows, rhs)."""
    return (left_mult_matrix(alg, r) + right_mult_matrix(alg, r),
            list(alg.unit) * 2)


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


def left_mult_matrix(alg: Algebra, v: Vec):
    """Matrix of x -> v x."""
    f = alg.field
    d = alg.dim
    m = [[f.zero] * d for _ in range(d)]
    for i, j, k, c in alg.mult:
        if v[i]:
            m[k][j] = f.add(m[k][j], f.mul(v[i], c))
    return tuple(tuple(row) for row in m)


def right_mult_matrix(alg: Algebra, v: Vec):
    """Matrix of x -> x v."""
    f = alg.field
    d = alg.dim
    m = [[f.zero] * d for _ in range(d)]
    for i, j, k, c in alg.mult:
        if v[j]:
            m[k][i] = f.add(m[k][i], f.mul(v[j], c))
    return tuple(tuple(row) for row in m)


# -- ideal closures ----------------------------------------------------------

def _np_generators(alg: Algebra, maps=()) -> np.ndarray:
    """The operators L_{e_j}, R_{e_j} followed by the extra maps (matrices,
    or one array stack), in the dtype of the structure tensor."""
    if not len(maps):
        return alg._np_ops
    extra = np.array(maps, dtype=alg._np_ops.dtype) % alg.field.p
    return np.concatenate([alg._np_ops, extra])


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


def _closure_generic(alg: Algebra, seeds, maps=()):
    from .linalg import Echelon
    ech = Echelon(alg.field, alg.dim)
    ech.extend(seeds)
    while ech.rank < alg.dim:
        batch = []
        for row in [list(r) for r in ech.rows]:
            for j in range(alg.dim):
                batch.append(alg.left_by_basis(j, row))
                batch.append(alg.right_by_basis(j, row))
            for m in maps:
                batch.append(mat_vec(alg.field, m, row))
        if not ech.extend(batch):
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
    return _closure_generic(alg, gens, maps).to_subspace()


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


def _np_mat_pow(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x**e mod p for a stack of square int64 matrices, e >= 1."""
    out = None
    while e:
        if e & 1:
            out = x if out is None else np_matmul(out, x, p)
        e >>= 1
        if e:
            x = np_matmul(x, x, p)
    return out


def _density_fits(p: int, d: int) -> bool:
    """int64 holds the products of `_density_irreducible` over F_p."""
    return d * d * (p - 1) ** 2 < 2 ** 63


def _norton_fits(p: int, d: int) -> bool:
    """int64 holds the products of `_norton_irreducible` over F_p: sums of
    d residue products, on vectors and matrices of width d."""
    return d * (p - 1) ** 2 < 2 ** 63


def _commutant_field(alg: Algebra, gens: np.ndarray) -> int | None:
    """The dimension k of the commutant C = End_M(A) of the associative
    algebra M generated by the stack `gens` (from `_np_generators`) when C
    is a field, else None.

    A is unital and every X in C commutes with the R_a, so X = L_c with
    c = X(1); C is found as the c with [L_c, T] = 0 for every generator T,
    solved a few generators at a time on the solutions so far, and no
    further once only the unit line is left.  C is commutative: c = X(1)
    commutes with A, as X L_a = L_a X at 1, so X Y (1) = c c' = c' c.  A
    commutative F_p-algebra is a field exactly when its Frobenius x -> x^p
    is injective and fixes only the prime field (Berlekamp)."""
    from .linalg import np_kernel, np_rref
    p, d = alg.field.p, alg.dim
    left = gens[:d].reshape(d, d * d)
    cbasis = np.eye(d, dtype=gens.dtype)
    for start in range(0, len(gens), 4):
        if len(cbasis) == 1:
            break
        ls = np_matmul(cbasis, left, p).reshape(-1, 1, d, d)  # L_c per basis c
        chunk = gens[start:start + 4]
        comm = np_matmul(ls, chunk, p) - np_matmul(chunk, ls, p)
        cbasis = np_kernel(comm.reshape(len(cbasis), -1).T, p) @ cbasis % p
    cbasis, cpiv = np_rref(cbasis, p)
    k = len(cbasis)
    if k > 1:
        xs = np_matmul(cbasis, left, p).reshape(-1, d, d)
        unit = np.array([int(c) % p for c in alg.unit], dtype=xs.dtype)
        frob = (_np_mat_pow(xs, p, p) @ unit % p)[:, cpiv]  # rows: x_j^p in C
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


def _min_poly_roots(x: np.ndarray, v: np.ndarray, p: int) -> list[int]:
    """The roots in F_p, ascending, of the minimal polynomial of x on v:
    X^m - sum_i a_i X^i, where x^m v = sum_i a_i x^i v is the first relation
    of the Krylov vectors v, x v, ..., x^d v, read off one RREF of them as
    columns.  Every root is an eigenvalue of x.  The polynomial is evaluated
    at every element of F_p by Horner's rule, 2^16 of them per array, so a
    large p takes time but no more memory."""
    from .linalg import np_rref
    krylov = [v]
    for _ in range(len(v)):
        krylov.append(x @ krylov[-1] % p)
    red, piv = np_rref(np.stack(krylov, axis=1), p)
    roots = []
    for start in range(0, p, 1 << 16):
        lam = np.arange(start, min(p, start + (1 << 16)), dtype=np.int64)
        vals = np.ones_like(lam)
        for a in red[::-1, len(piv)]:
            vals = (vals * lam - a) % p
        roots += lam[vals == 0].tolist()
    return roots


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
    reducible.  The draws x <- x y + y, y a random combination of the
    generators, and the vectors come from a fixed seed, so the answer is
    deterministic.  Needs d (p - 1)^2 < 2^63 (`_norton_fits`); its time
    grows with p, as each draw scans F_p for eigenvalues, but under the
    budget p is less than the points of the sweep."""
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
    x = np.zeros((d, d), dtype=np.int64)
    for _ in range(NORTON_DRAWS):
        coeffs = np.array([rng.randrange(p) for _ in gens], dtype=np.int64)
        y = (coeffs[:, None, None] * gens % p).sum(axis=0) % p
        x = (np_matmul(x, y, p) + y) % p
        v = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        for lam in _min_poly_roots(x, v, p):
            shifted = (x - lam * eye) % p
            null = np_kernel(shifted, p)
            if len(null) != k:
                continue
            if len(_spin(null[:1], gens, d, p)[0]) < d:
                return False
            dual = np_kernel(shifted.T, p)
            return len(_spin(dual[:1], gens.transpose(0, 2, 1), d, p)[0]) == d
    return None


def _exact_verdict(alg: Algebra, maps, spaces, budget: int,
                   what: str) -> SimplicityVerdict:
    """The exact verdict of every simplicity notion: is A irreducible under
    the L_{e_j}, R_{e_j} and the extra maps?  The sweep is the
    `projective_walk` of the subspaces, refused past the budget before
    anything runs.
    A test of irreducibility runs first when int64 holds its products: for
    d >= 5, Norton's test once the sweep would visit more than d points;
    past d^2 points, the density test, alone for d <= 4, where it is the
    cheaper one, and for d >= 5 when Norton's test is undecided.  An
    irreducible A is then decided without the sweep, which otherwise runs
    to name the same first witness.  The crossover is measured: at d = 16
    over F_3 one Norton call, its products on BLAS (`np_matmul`), costs
    about as much as 8-10 closures of the sweep, so sweeps of up to d
    points, as of crossed products with a one-dimensional T, stay
    cheaper."""
    if not alg.field.is_finite:
        raise ExactModeUnavailable("exact enumeration needs a finite field")
    p, d = alg.field.p, alg.dim
    total, points = projective_walk(spaces, budget, what)
    gens = _np_generators(alg, maps)
    irreducible = None
    if d >= 5 and total > d and _norton_fits(p, d):
        irreducible = _norton_irreducible(alg, gens)
    if irreducible is None and total > d * d and _density_fits(p, d):
        irreducible = _density_irreducible(alg, gens)
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
    """Whether the density test finds the reduction mod P of A over Q, with
    the maps reduced too, irreducible.  True proves A simple under the maps
    (see `Algebra._reduced`); False settles nothing.  Maps with a
    denominator divisible by P do not reduce, and give False."""
    red = alg._reduced
    if red is None or not _density_fits(red.field.p, red.dim):
        return False
    try:
        maps = [coerce_matrix(red.field, m, red.dim) for m in maps]
    except ZeroDivisionError:
        return False
    return _density_irreducible(red, _np_generators(red, maps))


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
    no-counterexample.  Over Q it first runs the density test on the
    reduction mod P; an irreducible reduction proves A simple, and every
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
    """Span of all basis associators; zero exactly for associative algebras."""
    if alg.field.is_finite:
        from .linalg import np_to_subspace
        return np_to_subspace(alg.field, alg._np_defect.reshape(-1, alg.dim),
                              alg.dim)
    trip = alg._associator_triples
    vecs = [trip[i][j][k] for i in range(alg.dim)
            for j in range(alg.dim) for k in range(alg.dim)]
    return Subspace.span(alg.field, alg.dim, vecs)


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


# -- center equations ----------------------------------------------------------

def center_equations(alg: Algebra, twist=None) -> list:
    """Rows whose kernel is the x in N(A) with e_b x = x twist(e_b) for all
    b, Z(A) when there is no twist: the nonzero rows of each
    L_{e_b} - R_{twist(e_b)}, in (b, row) order, then
    `nucleus_equation_rows`.  Over F_p, while `_contractible`, all d of the
    L - R blocks are one contraction of the structure tensor."""
    f = alg.field
    if _contractible(alg):
        d = alg.dim
        eye = np.eye(d, dtype=alg._np_tensor.dtype)
        images = eye if twist is None else _np_vectors(alg, twist).T
        diff = (_np_left(alg, eye) - _np_right(alg, images)) % f.p
        diff = diff.reshape(d * d, d)          # row (b, k): L_{e_b} - R_{twist(e_b)}
        return diff[diff.any(axis=1)].tolist() + nucleus_equation_rows(alg)
    rows = []
    for b in range(alg.dim):
        e = alg.basis_vector(b)
        lmat = left_mult_matrix(alg, e)
        rmat = right_mult_matrix(alg, e if twist is None else mat_vec(f, twist, e))
        for lrow, rrow in zip(lmat, rmat):
            row = tuple(f.sub(x, y) for x, y in zip(lrow, rrow))
            if any(row):
                rows.append(row)
    return rows + nucleus_equation_rows(alg)


def fixed_equations(alg: Algebra, maps) -> list:
    """The nonzero rows of every M - I: their kernel is the common fixed
    space of the maps."""
    f = alg.field
    ident = identity_matrix(f, alg.dim)
    rows = (tuple(f.sub(x, y) for x, y in zip(mrow, irow))
            for m in maps for mrow, irow in zip(m, ident))
    return [row for row in rows if any(row)]


def fixed_center(alg: Algebra, maps) -> Subspace:
    """Z(A) intersected with the common fixed space of the maps."""
    return kernel(alg.field, center_equations(alg) + fixed_equations(alg, maps),
                  alg.dim)
