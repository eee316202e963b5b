"""Exact linear algebra: reduced row echelon forms, subspaces, kernels.

Elimination has two implementations.  `Echelon` works over any FieldSpec
with plain Python scalars; it eliminates over Q and is the reference for
the other.  `np_rref` eliminates over F_p on residues mod p, because the
ideal-closure loops enumerate thousands of subspaces, most of them tiny;
it returns int64 while a row's sums of products fit (`np_dtype`) and
Python ints past that, and drops the all-zero rows first.  It has two
regimes, selected on p: while (p - 1)^2 fits in one CPython digit, small
or sparse systems are eliminated on Python lists and large ones by blocks
of rows on lists, each block's reduction of the remaining rows one numpy
product; dense mid-sized systems, and every system mod a larger prime,
take the pivot loop on the array.  `kernel` and
`solve_affine` eliminate on `np_rref` over F_p and on `Echelon` only over
Q, once per system: an affine solve reads its particular solution and its
kernel off one elimination of [A | b].  `kernel` takes equations as an
array as well as a list of rows, over either field.

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
import sys
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


# -- solving -----------------------------------------------------------------

def rref(field: FieldSpec, rows: Iterable[Sequence[Scalar]], width: int) -> Echelon:
    ech = Echelon(field, width)
    ech.extend(rows)
    return ech


def _rref_kernel(field: FieldSpec, red, pivots: list[int],
                 width: int) -> Subspace:
    """The kernel of a system of width `width` from its RREF (rows `red`,
    pivot columns `pivots`): one vector per free column f, 1 at f and
    -row[f] at the pivot of each row, then put in canonical form.  Columns
    of `red` past `width` are not read."""
    if field.is_finite and width:
        rows = _np_free_rows(red, pivots, width, field.p)
        return np_to_subspace(field, rows, width)
    vecs = []
    for fcol in (j for j in range(width) if j not in pivots):
        v = [field.zero] * width
        v[fcol] = field.one
        for row, p in zip(red, pivots):
            v[p] = field.neg(row[fcol])
        vecs.append(v)
    return Subspace.span(field, width, vecs)


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
    return _rref_kernel(field, ech.rows, ech.pivots, width)


def solve_affine(field: FieldSpec, equations: Sequence[Sequence[Scalar]],
                 rhs: Sequence[Scalar]) -> tuple[Vec | None, Subspace]:
    """Particular solution of A x = b (or None) plus the homogeneous kernel,
    both read off one elimination of [A | b], by `np_rref` over F_p and
    `Echelon` over Q.  A pivot in the last column makes the system
    inconsistent; the other rows, without their last column, are RREF(A).
    The particular solution has its free coordinates zero."""
    width = len(equations[0]) if equations else 0
    aug = [list(e) + [b] for e, b in zip(equations, rhs)]
    if field.is_finite and width:
        red, pivots = np_rref(aug, field.p)
    else:
        ech = rref(field, aug, width + 1)
        red, pivots = ech.rows, ech.pivots
    if pivots and pivots[-1] == width:
        return None, _rref_kernel(field, red[:-1], pivots[:-1], width)
    x = [field.zero] * width
    for row, p in zip(red, pivots):
        x[p] = field.coerce(row[width])
    return tuple(x), _rref_kernel(field, red, pivots, width)


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


def coerce_matrix(field: FieldSpec, rows, n: int, m: int | None = None,
                  coerce=None) -> Mat:
    """The n x m (n x n) matrix, each entry through coerce (`field.coerce`)."""
    m = n if m is None else m
    coerce = coerce or field.coerce
    rows = [list(r) for r in rows]
    if len(rows) != n or any(len(r) != m for r in rows):
        raise DimensionMismatch(f"expected {n}x{m} matrix")
    return tuple(tuple(map(coerce, r)) for r in rows)


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


def _on_blas(k: int, p: int | None, *arrays) -> bool:
    """Whether residue products of contraction length k run exactly on
    float64 BLAS: over F_p, on int64 arrays, while k (p - 1)^2 < 2^53."""
    return (p is not None and all(a.dtype != object for a in arrays)
            and k * (p - 1) ** 2 < 2 ** 53)


def np_matmul(a: np.ndarray, b: np.ndarray, p: int | None) -> np.ndarray:
    """a @ b mod p, for arrays (or stacks, broadcast as `@` does) whose
    entries have absolute value at most p - 1.  numpy's integer `@` is a
    plain loop; float64 `@` is BLAS, and it is exact here.  With k the
    contraction length, every partial sum of every entry, in whatever
    order BLAS adds and with or without fused multiply-adds, is an integer
    of absolute value at most k (p - 1)^2; below 2^53 each one is a float64
    exactly, so no step rounds.  Past that bound (at P = 33554393 from
    k = 9 on, as 8 (P - 1)^2 < 2^53), on object arrays, or over Z (p None),
    the product is `@` in the arrays' own dtype."""
    if _on_blas(np.shape(a)[-1], p, a, b):
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64) % p
    return np_mod(a @ b, p)


def np_mat_pow(x: np.ndarray, e: int, p: int | None) -> np.ndarray:
    """x**e, e >= 1, for a square matrix or a stack of them, by repeated
    squaring: mod p over F_p, in integers over Z (p None), where the power
    of a cleared matrix carries its scale to the e.  Where `np_matmul`
    would run on BLAS, every step stays in float64, whose remainder mod p
    is exact, and only the result returns to int64."""
    blas = _on_blas(np.shape(x)[-1], p, x)
    if blas:
        x = x.astype(np.float64)
    mul = (lambda a, b: a @ b % p) if blas else (lambda a, b: np_matmul(a, b, p))
    out = None
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out.astype(np.int64) if blas else out


_ONE_DIGIT = 2 ** sys.int_info.bits_per_digit
# Where eliminating on lists stops paying: a pivot on lists costs about
# one numpy call per row it updates, the array loop about ten calls per
# pivot, and a block's product about as much as two pivots of it.
_BLOCK = 8
_LARGE = 512


def np_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of a matrix mod p, given as an array or a list of rows, which
    is left unchanged; returns (the nonzero rows as an `np_dtype(p,
    width)` array, the pivot columns).  The RREF is canonical, so which
    rows serve as pivots below never shows in the result.  All-zero rows
    are dropped first: they change neither the RREF nor its pivots, and
    the nucleus systems are mostly made of them.

    Two regimes, selected on p.  While the product of two residues fits
    in one CPython digit, (p - 1)^2 < 2^30 on the usual builds (the bound
    is read from `sys.int_info`), a system goes to Python lists when that
    is cheaper than the array loop, which makes about ten numpy calls per
    pivot: on lists a pivot costs one list operation per row that is
    nonzero in its column.  So a system of at most `_BLOCK` nonzero rows,
    or with at most 3 nonzeros per column on average, is one
    `_gauss_jordan`, and a system of `_LARGE` entries or more, on which
    each pass of the array loop would sweep every entry, goes by blocks
    (`_rref_by_blocks`).  A dense system between the two keeps the array
    loop (`_rref_loop`), which Python lists do not beat there.  Past the
    one-digit bound every residue product is a multi-digit int, slower
    than numpy's, and every system takes the array loop."""
    a = np.asarray(a, dtype=np_dtype(p, np.shape(a)[1])) % p
    on_rows = (p - 1) ** 2 < _ONE_DIGIT
    if on_rows and len(a) <= _BLOCK:
        return _rows_rref([r for r in a.tolist() if any(r)], p, a)
    a = a[(a != 0).any(axis=1)]
    if on_rows:
        # the average column, not the busiest: a bound of 3 on the busiest
        # column was measured slower on towers, crossed and small_mixed
        # (`scripts/rref_shapes.py`), as its test costs three numpy calls to
        # one and the systems it keeps off the lists ran faster on them
        if len(a) <= _BLOCK or np.count_nonzero(a) <= 3 * a.shape[1]:
            return _rows_rref(a.tolist(), p, a)
        if a.size >= _LARGE:
            return _rref_by_blocks(a, p)
    return _rref_loop(a, p)


def _rref_loop(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`np_rref` of an array of nonzero residue rows, in place, one pivot
    column at a time.  Residues are at least 0, so a column below row r
    has a nonzero exactly when its largest entry, the one `argmax` finds,
    is nonzero; that row becomes the pivot row."""
    m, n = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        i = r + int(a[r:, c].argmax())
        if not a[i, c]:
            continue
        row = a[i] * pow(int(a[i, c]), -1, p) % p
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


def _rows_rref(rows: list[list[int]], p: int,
               like: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`np_rref` of nonzero residue rows given as lists, as an array of the
    dtype and width of `like`."""
    red, pivots = _gauss_jordan(rows, p)
    red = np.array(red, dtype=like.dtype)
    return red.reshape(len(pivots), like.shape[1]), pivots


def _gauss_jordan(rows: list[list[int]],
                  p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan mod p of nonzero rows of residues, on the lists
    themselves; returns the RREF rows and their pivot columns, in column
    order.  A row with no pivot yet is zero before the current column, so
    each elimination touches only the rows nonzero in the pivot column,
    and in them only the columns from the pivot on."""
    m = len(rows)
    r = 0
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        rows[r] = row
        inv = pow(row[c], -1, p)
        if inv != 1:
            row[c:] = [x * inv % p for x in row[c:]]
        tail = row[c:]
        for other in rows:
            f = other[c]
            if f and other is not row:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _rref_by_blocks(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`np_rref` of a large array of nonzero residue rows, `_BLOCK` rows at
    a time: `_gauss_jordan` of the block, then one product and one `%`
    clear the block's pivot columns from the echelon so far and from the
    rows not yet seen, whose zero rows are dropped.  Those rows are then
    zero in every pivot column so far, so the next block finds only new
    pivots; blocks of 8 rows keep each pivot on lists to at most 7 row
    operations.  Stops once every column has a pivot."""
    n = a.shape[1]
    ech, pivots = a[:0], []
    while len(a) and len(pivots) < n:
        new, npiv = _gauss_jordan(a[:_BLOCK].tolist(), p)
        new = np.array(new, dtype=a.dtype)
        k = len(ech)
        rest = np.concatenate([ech, a[_BLOCK:]])
        rest = (rest - rest[:, npiv] @ new) % p
        ech = np.concatenate([rest[:k], new])
        a = rest[k:]
        a = a[a.any(axis=1)]
        pivots += npiv
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return ech[order], [pivots[i] for i in order]


def _np_free_rows(red: np.ndarray, pivots: list[int], width: int,
                  p: int) -> np.ndarray:
    """Basis rows of the kernel of an RREF mod p (rows `red`, pivot
    columns `pivots`) of width `width`: per free column f, 1 at f and
    -red[:, f] at the pivots.  Columns of `red` past `width` are not read."""
    free = [j for j in range(width) if j not in pivots]
    out = np.zeros((len(free), width), dtype=np_dtype(p, width))
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = -red[:, free].T % p
    return out


def np_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Basis rows of the right kernel of a mod p."""
    return _np_free_rows(*np_rref(a, p), a.shape[1], p)


def np_to_subspace(field: FieldSpec, rows: np.ndarray, ambient: int) -> Subspace:
    red, pivots = np_rref(rows.reshape(-1, ambient), field.p)
    return Subspace(field, ambient, tuple(map(tuple, red.tolist())),
                    tuple(pivots))
