"""Exact linear algebra: reduced row echelon forms, subspaces, kernels.

Elimination has two implementations.  `Echelon` works over any FieldSpec
with plain Python scalars; it eliminates over Q and is the reference for
the other.  `np_rref` eliminates over F_p on arrays reduced mod p, because
the ideal-closure loops enumerate thousands of subspaces; it holds int64
while a row's sums of products fit (`np_dtype`) and Python ints past that,
and drops the all-zero rows before its pivot loop.  `kernel` takes
equations as an array as well as a list of rows, over either field.

Products of arrays are one path for both fields: `np_matmul`,
`np_mat_pow` and `np_mod` reduce mod p over F_p, and over Z (p None)
leave the Python-int arrays by which `algebra` carries rationals with
their denominators cleared.  Every product of matrices is one of them;
the routines on Python scalars left are `mat_vec`, `identity_matrix`,
`mat_inverse` (an Echelon solve) and `coerce_matrix`.  Residue products
run on float64 BLAS while k (p - 1)^2 < 2^53 for contraction length k.
Over Q most answers never reach elimination here: `algebra` reduces an
algebra mod one large prime (`Algebra._reduced`), whose ranks bound the
ranks over Q from below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch
from .fields import FieldSpec, Scalar

Vec = tuple  # coordinate vector, entries are field scalars
Mat = tuple  # tuple of row tuples


# -- generic echelon forms ---------------------------------------------------

class Echelon:
    """Mutable builder for a canonical RREF row set over an exact field."""

    def __init__(self, field: FieldSpec, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Scalar]) -> list[Scalar]:
        """Residue of v after elimination against the current rows."""
        f = self.field
        v = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                for j in range(piv, self.ambient):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def add(self, v: Sequence[Scalar]) -> bool:
        """Insert v; returns True when the rank grew."""
        f = self.field
        v = self.reduce(v)
        lead = next((j for j, c in enumerate(v) if c), None)
        if lead is None:
            return False
        inv = f.inv(v[lead])
        v = [f.mul(inv, c) for c in v]
        # keep full reduction: clear the new pivot column above
        for row in self.rows:
            c = row[lead]
            if c:
                for j in range(lead, self.ambient):
                    row[j] = f.sub(row[j], f.mul(c, v[j]))
        at = next((i for i, p in enumerate(self.pivots) if p > lead), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, lead)
        return True

    def extend(self, vectors: Iterable[Sequence[Scalar]]) -> bool:
        grew = False
        for v in vectors:
            grew |= self.add(v)
        return grew

    def to_subspace(self) -> "Subspace":
        return Subspace(self.field, self.ambient,
                        tuple(tuple(r) for r in self.rows), tuple(self.pivots))


@dataclass(frozen=True)
class Subspace:
    """A subspace held as canonical RREF basis rows; equality is literal."""

    field: FieldSpec
    ambient: int
    basis: Mat
    pivots: tuple[int, ...]

    @classmethod
    def span(cls, field: FieldSpec, ambient: int,
             vectors: Iterable[Sequence[Scalar]] = ()) -> "Subspace":
        return rref(field, vectors, ambient).to_subspace()

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return len(self.basis) == self.ambient

    def contains(self, v: Sequence[Scalar]) -> bool:
        """The rows are fully reduced, so v is in the span exactly when
        v - sum_i v[pivot_i] row_i is zero."""
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.ambient}")
        f = self.field
        w = list(v)
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                for j, x in enumerate(row):
                    if x:
                        w[j] = f.sub(w[j], f.mul(c, x))
        return not any(w)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.field, self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        # kernel trick: relations a.U - b.V = 0 give the common vectors
        if self.is_zero or other.is_zero:
            return Subspace.span(self.field, self.ambient)
        cols = [list(r) for r in self.basis] + \
               [[self.field.neg(c) for c in r] for r in other.basis]
        eqs = [tuple(col[k] for col in cols) for k in range(self.ambient)]
        rel = kernel(self.field, eqs, len(cols))
        f = self.field
        vecs = []
        for lam in rel.basis:
            w = [f.zero] * self.ambient
            for a, row in zip(lam[: self.rank], self.basis):
                if a:
                    for j in range(self.ambient):
                        w[j] = f.add(w[j], f.mul(a, row[j]))
            vecs.append(w)
        return Subspace.span(self.field, self.ambient, vecs)


# -- solving -----------------------------------------------------------------

def rref(field: FieldSpec, rows: Iterable[Sequence[Scalar]], width: int) -> Echelon:
    ech = Echelon(field, width)
    ech.extend(rows)
    return ech


def kernel(field: FieldSpec, equations: Sequence[Sequence[Scalar]] | np.ndarray,
           width: int) -> Subspace:
    """Solution space of the homogeneous system (one equation per row).
    Over F_p every system goes to `np_kernel`, an empty one included, and
    the equations may be a 2-d array of residues, which needs no detour
    through Python lists."""
    if field.is_finite and width:
        eqs = np.asarray(equations, dtype=np_dtype(field.p, width))
        rows = np_kernel(eqs.reshape(-1, width), field.p)
        return np_to_subspace(field, rows, width)
    ech = rref(field, equations, width)
    piv = set(ech.pivots)
    free = [j for j in range(width) if j not in piv]
    vecs = []
    for fcol in free:
        v = [field.zero] * width
        v[fcol] = field.one
        for row, p in zip(ech.rows, ech.pivots):
            v[p] = field.neg(row[fcol])
        vecs.append(v)
    return Subspace.span(field, width, vecs)


def solve_affine(field: FieldSpec, equations: Sequence[Sequence[Scalar]],
                 rhs: Sequence[Scalar]) -> tuple[Vec | None, Subspace]:
    """Particular solution of A x = b (or None) plus the homogeneous kernel."""
    width = len(equations[0]) if equations else 0
    aug = rref(field, [list(e) + [b] for e, b in zip(equations, rhs)], width + 1)
    if width in aug.pivots:
        return None, kernel(field, equations, width)
    x = [field.zero] * width
    for row, p in zip(aug.rows, aug.pivots):
        x[p] = row[width]
    return tuple(x), kernel(field, equations, width)


# -- matrix helpers ----------------------------------------------------------

def mat_vec(field: FieldSpec, m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Vec:
    out = []
    for row in m:
        acc = field.zero
        for a, b in zip(row, v):
            if a and b:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)


def identity_matrix(field: FieldSpec, n: int) -> Mat:
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def mat_inverse(field: FieldSpec, m: Sequence[Sequence[Scalar]]) -> Mat | None:
    n = len(m)
    aug = rref(field, [list(row) + list(ident) for row, ident in
                       zip(m, identity_matrix(field, n))], 2 * n)
    if aug.pivots[:n] != list(range(n)) or aug.rank != n:
        return None
    return tuple(tuple(row[n:]) for row in aug.rows)


def coerce_matrix(field: FieldSpec, rows, n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    rows = [list(r) for r in rows]
    if len(rows) != n or any(len(r) != m for r in rows):
        raise DimensionMismatch(f"expected {n}x{m} matrix")
    return tuple(tuple(field.coerce(c) for c in r) for r in rows)


# -- projective enumeration --------------------------------------------------

def projective_count(p: int, dim: int) -> int:
    return (p ** dim - 1) // (p - 1)


def projective_points(p: int, dim: int) -> Iterator[tuple[int, ...]]:
    """One representative per projective point, first nonzero coordinate 1,
    in ascending lexicographic order on the full coordinate tuple."""
    for lead in range(dim - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=dim - 1 - lead):
            yield (0,) * lead + (1,) + tail


def projective_walk(spaces: Sequence[Subspace], budget: int,
                    what: str) -> tuple[int, Iterator[Vec]]:
    """Every exhaustive search over F_p: the count of the projective points
    of the subspaces, refused ("N <what> exceed budget B") before the first
    point when over the budget, and the points as a lazy iterator, subspace
    by subspace, each as sum_i a_i row_i in the lex order of the
    coefficients a (`projective_points`)."""
    total = sum(projective_count(s.field.p, s.rank) for s in spaces)
    if total > budget:
        raise BudgetExceeded(f"{total} {what} exceed budget {budget}")

    def points():
        for s in spaces:
            rows = [[(j, x) for j, x in enumerate(r) if x] for r in s.basis]
            for coeffs in projective_points(s.field.p, s.rank):
                w = [0] * s.ambient
                for a, row in zip(coeffs, rows):
                    for j, x in row:
                        w[j] += a * x
                yield tuple(c % s.field.p for c in w)
    return total, points()


# -- numpy arrays: F_p, and Z for the cleared rationals -----------------------

def np_dtype(p: int | None, width: int):
    """int64 while the difference of two sums of `width` products of
    residues fits, 2 w (p - 1)^2 < 2^63; object (Python ints) past it, and
    over Z (p None), whose integers are unbounded."""
    if p is None:
        return object
    return np.int64 if 2 * width * (p - 1) ** 2 < 2 ** 63 else object


def np_mod(a: np.ndarray, p: int | None) -> np.ndarray:
    """The reduction step of every contraction: a mod p over F_p, and a
    itself over Z (p None), where the integers stand for rationals with
    their denominators cleared."""
    return a if p is None else a % p


def np_matmul(a: np.ndarray, b: np.ndarray, p: int | None) -> np.ndarray:
    """a @ b mod p, for arrays (or stacks, broadcast as `@` does) whose
    entries have absolute value at most p - 1.  numpy's integer `@` is a
    plain loop; float64 `@` is BLAS, and it is exact here.  With k the
    contraction length, every partial sum of every entry, in whatever
    order BLAS adds and with or without fused multiply-adds, is an integer
    of absolute value at most k (p - 1)^2; below 2^53 each one is a float64
    exactly, so no step rounds.  Past that bound (at P = 33554393 from
    k = 8 on), on object arrays, or over Z (p None), the product is `@` in
    the arrays' own dtype."""
    k = np.shape(a)[-1]
    if (p is not None and a.dtype != object and b.dtype != object
            and k * (p - 1) ** 2 < 2 ** 53):
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64) % p
    return np_mod(a @ b, p)


def np_mat_pow(x: np.ndarray, e: int, p: int | None) -> np.ndarray:
    """x**e, e >= 1, for a square matrix or a stack of them, by repeated
    squaring with `np_matmul`: mod p over F_p, in integers over Z (p None),
    where the power of a cleared matrix carries its scale to the e."""
    out = None
    while e:
        if e & 1:
            out = x if out is None else np_matmul(out, x, p)
        e >>= 1
        if e:
            x = np_matmul(x, x, p)
    return out


def np_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of a matrix mod p; returns (nonzero rows, pivot columns).
    All-zero rows are dropped before the pivot loop: they change neither
    the canonical form nor its pivots, and the nucleus systems are mostly
    made of them.  Residues are at least 0, so a column below row r has a
    nonzero exactly when its largest entry, the one `argmax` finds, is
    nonzero; that row becomes the pivot row (the RREF is canonical, so the
    choice does not show in the result)."""
    a = np.array(a, dtype=np_dtype(p, np.shape(a)[1])) % p
    a = a[(a != 0).any(axis=1)]
    m, n = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        i = r + int(np.argmax(a[r:, c]))
        if not a[i, c]:
            continue
        row = a[i] * pow(int(a[i, c]), p - 2, p) % p
        if i != r:
            a[i] = a[r]
        a[r] = row
        col = a[:, c].copy()
        col[r] = 0
        a -= col[:, None] * row
        a %= p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def np_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of the right kernel of a mod p."""
    red, pivots = np_rref(a, p)
    n = a.shape[1]
    free = [j for j in range(n) if j not in pivots]
    out = np.zeros((len(free), n), dtype=np_dtype(p, n))
    for k, fcol in enumerate(free):
        out[k, fcol] = 1
        for row, piv in zip(red, pivots):
            out[k, piv] = (-row[fcol]) % p
    return out


def np_to_subspace(field: FieldSpec, rows: np.ndarray, ambient: int) -> Subspace:
    red, pivots = np_rref(rows.reshape(-1, ambient), field.p)
    return Subspace(field, ambient,
                    tuple(tuple(int(c) for c in row) for row in red),
                    tuple(pivots))
