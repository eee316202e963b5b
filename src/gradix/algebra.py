"""Finite-dimensional unital algebras given by structure constants.

An algebra of dimension d stores its multiplication sparsely as entries
(i, j, k, c) meaning e_i * e_j contains c * e_k; products of arbitrary
vectors expand bilinearly.  No associativity or commutativity is assumed
anywhere.  Dense per-basis operator tables are cached lazily for the
closure loops, and over F_p those live in numpy (exact: residues held in
int64 while products fit, Python ints past that; see `linalg.np_dtype`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BudgetExceeded, DimensionMismatch, ExactModeUnavailable,
                     ValidationError)
from .fields import FieldSpec, Scalar
from .linalg import (Subspace, Vec, kernel, mat_inverse, mat_vec, np_dtype,
                     projective_count, projective_points, solve_affine)


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

    def zero_vec(self) -> Vec:
        return (self.field.zero,) * self.dim

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
        (e_i, e_j, e_k) over F_p."""
        c = self._np_tensor
        return (np.einsum("ijm,mkl->ijkl", c, c) -
                np.einsum("jkm,iml->ijkl", c, c)) % self.field.p

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
    for i in range(alg.dim):
        si = alg.star(alg.basis_vector(i))
        for j in range(alg.dim):
            lhs = alg.star(alg.product_table[i][j])
            rhs = alg.multiply(alg.star(alg.basis_vector(j)), si)
            if lhs != rhs:
                raise ValidationError(f"involution does not reverse products at {(i, j)}")


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


def _associator_triples(alg: Algebra):
    """Dense table (e_i, e_j, e_k) for the generic path."""
    prod = alg.product_table
    table = []
    for i in range(alg.dim):
        plane = []
        for j in range(alg.dim):
            row = []
            for k in range(alg.dim):
                row.append(alg.sub_vec(alg.right_by_basis(k, prod[i][j]),
                                       alg.left_by_basis(i, prod[j][k])))
            plane.append(row)
        table.append(plane)
    return table


def _nucleus_blocks_np(alg: Algebra):
    c = alg._np_tensor
    d = alg.dim
    p = alg.field.p
    defect = alg._np_defect
    left = defect.transpose(1, 2, 3, 0).reshape(d ** 3, d)
    middle = defect.transpose(0, 2, 3, 1).reshape(d ** 3, d)
    right = defect.transpose(0, 1, 3, 2).reshape(d ** 3, d)
    comm = ((c - c.transpose(1, 0, 2)) % p).transpose(1, 2, 0).reshape(d * d, d)
    return left, middle, right, comm


def _nucleus_blocks_generic(alg: Algebra):
    d = alg.dim
    trip = _associator_triples(alg)
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


def nucleus_and_center(alg: Algebra) -> CentralSubspaces:
    f = alg.field
    d = alg.dim
    if f.is_finite:
        left, middle, right, comm = _nucleus_blocks_np(alg)
        stack = lambda blocks: kernel(f, np.concatenate(blocks), d)
        return CentralSubspaces(
            left=stack([left]), middle=stack([middle]), right=stack([right]),
            nucleus=stack([left, middle, right]),
            commuter=stack([comm]),
            center=stack([left, middle, right, comm]))
    left, middle, right, comm = _nucleus_blocks_generic(alg)
    return CentralSubspaces(
        left=kernel(f, left, d), middle=kernel(f, middle, d),
        right=kernel(f, right, d),
        nucleus=kernel(f, left + middle + right, d),
        commuter=kernel(f, comm, d),
        center=kernel(f, left + middle + right + comm, d))


# -- inverses ----------------------------------------------------------------

def inverse_system(alg: Algebra, r: Vec):
    """Equations for s with r s = 1 and s r = 1, as (rows, rhs)."""
    f = alg.field
    d = alg.dim
    left = [[f.zero] * d for _ in range(d)]   # (r s)_k rows
    right = [[f.zero] * d for _ in range(d)]  # (s r)_k rows
    for i, j, k, c in alg.mult:
        if r[i]:
            left[k][j] = f.add(left[k][j], f.mul(r[i], c))
        if r[j]:
            right[k][i] = f.add(right[k][i], f.mul(r[j], c))
    return left + right, list(alg.unit) + list(alg.unit)


def two_sided_inverse(alg: Algebra, r: Vec) -> Vec | None:
    """A solution of r s = s r = 1, or None.  Free coordinates are zeroed,
    so the answer is deterministic; uniqueness is not assumed."""
    rows, rhs = inverse_system(alg, r)
    particular, _ = solve_affine(alg.field, rows, rhs)
    return particular


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


def _closure_np(alg: Algebra, seeds, gens: np.ndarray):
    """Batch fixpoint: repeatedly append the images of the current row space
    under every generator in the stack, stopping when the rank stabilizes."""
    from .linalg import np_rref
    p = alg.field.p
    d = alg.dim
    rows = np.array([[int(c) for c in v] for v in seeds],
                    dtype=gens.dtype).reshape(-1, d)
    ech, piv = np_rref(rows, p)
    while ech.shape[0] < d:
        prods = np.einsum("kij,rj->rki", gens, ech).reshape(-1, d) % p
        nxt, npiv = np_rref(np.concatenate([ech, prods]), p)
        if nxt.shape[0] == ech.shape[0]:
            break
        ech, piv = nxt, npiv
    return ech, piv


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


def _closure_is_full(alg: Algebra, seed, maps=()) -> bool:
    if alg.field.is_finite:
        ech, _ = _closure_np(alg, [seed], _np_generators(alg, maps))
        return ech.shape[0] == alg.dim
    return _closure_generic(alg, [seed], maps).rank == alg.dim


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
    randomized mode, the samples drawn."""


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


def coordinate_points(alg: Algebra, block):
    """Projective points of the coordinate subspace spanned by the basis
    vectors in `block`, embedded in A, in ascending lex order (F_p)."""
    for coeffs in projective_points(alg.field.p, len(block)):
        v = [alg.field.zero] * alg.dim
        for c, i in zip(coeffs, block):
            v[i] = c
        yield tuple(v)


def _np_mat_pow(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x**e mod p for a stack of square int64 matrices, e >= 1."""
    out = None
    while e:
        if e & 1:
            out = x if out is None else (out @ x) % p
        e >>= 1
        if e:
            x = (x @ x) % p
    return out


def _density_irreducible(alg: Algebra, gens: np.ndarray) -> bool:
    """Jacobson density test over F_p (Holt & Rees, "Testing modules for
    irreducibility", 1994): A is irreducible under the associative algebra M
    generated by the stack `gens` (from `_np_generators`) exactly when the
    commutant C = End_M(A) is a division algebra of dimension k and
    dim M = d^2 / k, that is M = End_C(A).

    A is unital and every X in C commutes with the R_a, so X = L_c with
    c = X(1); C is found as the c with [L_c, T] = 0 for every generator T.
    Needs d^2 (p - 1)^2 < 2^63, the bound of the int64 products below."""
    from .linalg import np_kernel, np_rref
    p, d = alg.field.p, alg.dim
    left = gens[:d]
    # equations on c: one row per generator and matrix entry of [L_c, T]
    comm = (np.einsum("iab,tbc->taci", left, gens) -
            np.einsum("tab,ibc->taci", gens, left)) % p
    cbasis, cpiv = np_rref(np_kernel(comm.reshape(-1, d), p), p)
    k = len(cbasis)
    if k > 1:
        # C is commutative: c = X(1) commutes with A, as X L_a = L_a X at 1,
        # so X Y (1) = c c' = c' c.  A commutative F_p-algebra is a field
        # exactly when its Frobenius x -> x^p is injective and fixes only
        # the prime field (Berlekamp)
        xs = np.einsum("ki,iab->kab", cbasis, left) % p
        unit = np.array([int(c) % p for c in alg.unit], dtype=np.int64)
        frob = (_np_mat_pow(xs, p, p) @ unit % p)[:, cpiv]  # rows: x_j^p in C
        if (len(np_rref(frob, p)[0]) < k or
                len(np_rref(frob - np.eye(k, dtype=np.int64), p)[0]) != k - 1):
            return False
    target = d * d // k
    ech, piv = np_rref(np.eye(d, dtype=np.int64).reshape(1, d * d), p)
    frontier = ech
    while len(ech) < target:
        prods = np.einsum("tab,rbc->rtac", gens,
                          frontier.reshape(-1, d, d)).reshape(-1, d * d) % p
        new, npiv = np_rref(prods - prods[:, piv] @ ech, p)
        if not len(new):
            break
        ech = np.concatenate([(ech - ech[:, npiv] @ new) % p, new])
        piv = piv + npiv
        frontier = new
    return len(ech) == target


def _exact_verdict(alg: Algebra, maps, blocks, budget: int,
                   noun: str) -> SimplicityVerdict:
    """The exact verdict of every simplicity notion: is A irreducible under
    the L_{e_j}, R_{e_j} and the extra maps?  The sweep visits the projective
    points of each coordinate block in turn and is refused past the budget.
    Past d^2 points, when int64 holds its products, the density test
    decides, and the sweep only names the witness of a reducible A."""
    if not alg.field.is_finite:
        raise ExactModeUnavailable("exact enumeration needs a finite field")
    p, d = alg.field.p, alg.dim
    total = sum(projective_count(p, len(block)) for block in blocks)
    if total > budget:
        raise BudgetExceeded(f"{total} {noun} points exceed budget {budget}")
    gens = _np_generators(alg, maps)
    density = total > d * d and d * d * (p - 1) ** 2 < 2 ** 63
    if density and _density_irreducible(alg, gens):
        return SimplicityVerdict(True, None, "exact", total)
    points = (pt for block in blocks for pt in coordinate_points(alg, block))
    for checked, pt in enumerate(points, 1):
        if len(_closure_np(alg, [pt], gens)[0]) < d:
            return SimplicityVerdict(False, pt, "exact", checked)
    if density:
        raise RuntimeError("density test found A reducible but the sweep "
                           "found no proper invariant ideal")
    return SimplicityVerdict(True, None, "exact", total)


def simple_under(alg: Algebra, maps=(), mode: str = "auto",
                 budget: int = 1_000_000, trials: int = 1000,
                 seed: int = 0) -> SimplicityVerdict:
    """Decide whether the only ideals closed under the extra maps are 0 and
    the whole algebra.  Exact mode (F_p only) is `_exact_verdict` over the
    projective points of A, decided by the Jacobson density test past d^2
    of them.  Randomized mode samples and can only refute or report
    no-counterexample."""
    if mode == "auto":
        mode = "exact" if alg.field.is_finite else "randomized"
    if mode == "exact":
        return _exact_verdict(alg, maps, [range(alg.dim)], budget, "projective")
    rng = random.Random(seed)
    for t in range(trials):
        v = random_element(alg, rng)
        if not _closure_is_full(alg, v, maps):
            return SimplicityVerdict(False, v, "randomized", t + 1)
    return SimplicityVerdict(True, None, "randomized", trials)


def is_simple(alg: Algebra, mode: str = "auto", budget: int = 1_000_000,
              trials: int = 1000, seed: int = 0) -> SimplicityVerdict:
    return simple_under(alg, (), mode, budget, trials, seed)


def subfield_check(alg: Algebra, s: Subspace, budget: int = 1_000_000) -> bool:
    """Every nonzero element of the subspace has a two-sided inverse lying
    in the subspace again (so s, assumed closed under products, is a field)."""
    if not alg.field.is_finite:
        if s.rank == 1 and s.contains(alg.unit):
            return True  # the scalar line
        raise ExactModeUnavailable("field check over Q needs the scalar line")
    if s.rank and projective_count(alg.field.p, s.rank) > budget:
        raise BudgetExceeded("subspace too large to enumerate")
    for v in s.coordinates():
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
    trip = _associator_triples(alg)
    vecs = [trip[i][j][k] for i in range(alg.dim)
            for j in range(alg.dim) for k in range(alg.dim)]
    return Subspace.span(alg.field, alg.dim, vecs)


def is_associative(alg: Algebra) -> bool:
    return associator_defect(alg).is_zero


def is_ring_automorphism(alg: Algebra, m) -> bool:
    """Bijective, unit-fixing, multiplicative on all basis pairs."""
    if mat_inverse(alg.field, m) is None:
        return False
    if mat_vec(alg.field, m, alg.unit) != alg.unit:
        return False
    cols = [mat_vec(alg.field, m, alg.basis_vector(j)) for j in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            if mat_vec(alg.field, m, alg.product_table[i][j]) != \
                    alg.multiply(cols[i], cols[j]):
                return False
    return True


def conjugation_matrix(alg: Algebra, u: Vec):
    """Matrix of x -> (u x) u^{-1}; needs u two-sided invertible."""
    uinv = two_sided_inverse(alg, u)
    if uinv is None:
        raise ValidationError("conjugation by a non-invertible element")
    cols = [alg.multiply(alg.multiply(u, alg.basis_vector(j)), uinv)
            for j in range(alg.dim)]
    return tuple(tuple(cols[j][k] for j in range(alg.dim)) for k in range(alg.dim))
