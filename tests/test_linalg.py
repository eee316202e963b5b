import functools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import linalg
from gradix.errors import BudgetExceeded, DimensionMismatch
from gradix.fields import _is_prime, prime_field, rationals
from gradix.linalg import (Subspace, identity_matrix, kernel, mat_inverse,
                           np_dtype, np_mat_pow, np_matmul, np_rref,
                           projective_count, projective_points,
                           projective_walk, rref, solve_affine)
from helpers import (NONZERO_Q, echelon_kernel, echelon_solve, intersect,
                     mat_mul, mat_power, mat_vec)

BIG_P = 4294967311  # past the int64 bound of np_dtype
# the largest prime that `np_dtype` keeps in int64 at width 16,
# 2 * 16 * (p - 1)^2 < 2^63
EDGE_P = 536870909

F3 = prime_field(3)
Q = rationals()


def rand_rows(rng, n, m, p=3):
    return [tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]


def test_rref_is_canonical():
    rng = random.Random(7)
    for _ in range(50):
        rows = rand_rows(rng, 3, 5)
        e = rref(F3, rows, 5)
        # pivots strictly increasing, pivot columns elsewhere zero
        assert list(e.pivots) == sorted(set(e.pivots))
        for i, pcol in enumerate(e.pivots):
            for j, row in enumerate(e.rows):
                assert row[pcol] == (1 if i == j else 0)


def test_rref_idempotent_rank():
    rng = random.Random(11)
    for _ in range(50):
        rows = rand_rows(rng, 4, 4)
        e = rref(F3, rows, 4)
        again = rref(F3, e.rows, 4)
        assert e.rows == again.rows


def test_kernel_annihilates():
    rng = random.Random(13)
    for _ in range(50):
        rows = rand_rows(rng, 3, 5)
        k = kernel(F3, rows, 5)
        for v in k.basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) % 3 == 0
        # rank-nullity
        assert rref(F3, rows, 5).rank + k.rank == 5


def test_kernel_over_q():
    rows = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    k = kernel(Q, rows, 2)
    assert k.rank == 1
    v = k.basis[0]
    assert v[0] + 2 * v[1] == 0


def test_solve_affine():
    rows = [(1, 1), (0, 1)]
    x, hom = solve_affine(F3, rows, (2, 1))
    assert x is not None
    assert mat_vec(F3, rows, x) == (2, 1)
    assert hom.is_zero
    # inconsistent system
    x, hom = solve_affine(F3, [(1, 0), (2, 0)], (1, 1))
    assert x is None


def test_subspace_lattice():
    a = Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.span(F3, 3, [(0, 1, 0), (0, 0, 1)])
    meet = intersect(a, b)
    assert meet.rank == 1 and meet.contains((0, 1, 0))


@st.composite
def subspace_and_vector(draw):
    field = draw(st.sampled_from([prime_field(2), F3, Q]))
    scalars = (st.integers(0, field.p - 1) if field.is_finite else
               st.fractions(min_value=-3, max_value=3, max_denominator=3))
    n = draw(st.integers(1, 5))
    vec = st.lists(scalars, min_size=n, max_size=n).map(
        lambda v: tuple(field.coerce(c) for c in v))
    s = Subspace.span(field, n, draw(st.lists(vec, max_size=4)))
    if s.rank and draw(st.booleans()):
        # a combination of the rows, so members are drawn as often as not
        coeffs = draw(st.lists(scalars, min_size=s.rank, max_size=s.rank))
        v = tuple(field.coerce(0) for _ in range(n))
        for c, row in zip(coeffs, s.basis):
            v = tuple(field.add(x, field.mul(field.coerce(c), y))
                      for x, y in zip(v, row))
        return s, v
    return s, draw(vec)


@settings(max_examples=150, deadline=None)
@given(subspace_and_vector())
def test_contains_agrees_with_the_rank(case):
    s, v = case
    grown = Subspace.span(s.field, s.ambient, s.basis + (v,))
    assert s.contains(v) == (grown.rank == s.rank)


def test_contains_checks_the_length():
    with pytest.raises(DimensionMismatch):
        Subspace.span(F3, 3, [(1, 0, 0)]).contains((1, 0))


def test_subspace_coordinates_count():
    s = Subspace.span(F3, 3, [(1, 0, 0), (0, 0, 1)])
    total, walk = projective_walk([s], 4, "points")
    pts = list(walk)
    assert total == len(pts) == projective_count(3, 2)
    assert all(s.contains(v) for v in pts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_projective_walk_is_the_coefficient_order(p, seed, ranks):
    # each subspace in turn, sum_i a_i row_i over the coefficients a of
    # `projective_points`; one count, and one refusal before any point
    f, rng = prime_field(p), random.Random(seed)
    spaces = [Subspace.span(f, 4, rand_rows(rng, r, 4, p)) for r in ranks]
    want = [tuple(sum(a * row[j] for a, row in zip(coeffs, s.basis)) % p
                  for j in range(4))
            for s in spaces for coeffs in projective_points(p, s.rank)]
    total, walk = projective_walk(spaces, len(want), "points")
    assert total == len(want) and list(walk) == want
    if want:
        with pytest.raises(BudgetExceeded) as err:
            projective_walk(spaces, total - 1, "lines of a test")
        assert str(err.value) == f"{total} lines of a test exceed budget {total - 1}"


def test_matrix_inverse_and_power():
    m = ((1, 1), (0, 1))
    inv = mat_inverse(F3, m)
    assert mat_mul(F3, m, inv) == identity_matrix(F3, 2)
    assert np_mat_pow(np.array(m), 3, 3).tolist() == [[1, 0], [0, 1]]
    assert np_mat_pow(np.array(m), 2, 3).tolist() == [[1, 2], [0, 1]]
    assert mat_inverse(F3, ((1, 1), (2, 2))) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.sampled_from([2, 5, None]),
       st.booleans(), st.data())
def test_np_mat_pow_matches_repeated_products(n, e, p, stack, data):
    """Over F_p on residues, in int64 and in Python ints; over Z (p None) on
    the integers of a rational matrix with its scale s, whose power carries
    s**e; each against the product loop over the field, a stack
    matrix by matrix."""
    f = Q if p is None else prime_field(p)
    s = 1 if p is not None else data.draw(st.integers(1, 6))
    entries = st.integers(-2 ** 40, 2 ** 40) if p is None else st.integers(0, p - 1)
    mats = [[[data.draw(entries) for _ in range(n)] for _ in range(n)]
            for _ in range(2 if stack else 1)]
    dtype = object if p is None or data.draw(st.booleans()) else np.int64
    got = np_mat_pow(np.array(mats if stack else mats[0], dtype=dtype), e, p)
    got = got if stack else got[None]
    for m, g in zip(mats, got):
        want = mat_power(f, [[f.coerce(c) / s if p is None else c for c in row]
                             for row in m], e)
        assert [[Fraction(c, s ** e) if p is None else c for c in row]
                for row in g.tolist()] == [list(row) for row in want]


def test_projective_points_order_and_normalization():
    pts = list(projective_points(2, 2))
    # first point has the leading 1 on the last coordinate
    assert pts[0] == (0, 1)
    assert pts == [(0, 1), (1, 0), (1, 1)]
    # each point's first nonzero coordinate is 1
    for v in projective_points(3, 3):
        nz = next(c for c in v if c)
        assert nz == 1
    assert len(list(projective_points(3, 3))) == projective_count(3, 3) == 13


def test_np_dtype_bound():
    # int64 exactly while 2 w (p - 1)^2 < 2^63
    assert np_dtype(3, 16) is np.int64
    assert np_dtype(2 ** 31 - 1, 1) is np.int64
    assert np_dtype(2 ** 31 + 11, 1) is object
    assert np_dtype(2 ** 30 + 3, 2) is np.int64
    assert np_dtype(2 ** 30 + 3, 4) is object
    p = 4294967311
    red, piv = np_rref(np.array([[p - 1, p - 2], [2, 1]], dtype=object), p)
    assert piv == [0, 1] and red.tolist() == [[1, 0], [0, 1]]


def _with_zero_rows(a, rng):
    """a with all-zero rows inserted between, before and after its rows."""
    zero = np.zeros((1, a.shape[1]), dtype=a.dtype)
    parts = [zero]
    for row in a:
        parts += [row[None, :]] + [zero] * rng.randrange(3)
    return np.concatenate(parts + [zero, zero])


@pytest.mark.parametrize("p", [3, BIG_P])
def test_np_rref_ignores_zero_rows(p):
    rng = random.Random(17)
    dtype = np_dtype(p, 5)
    assert dtype is (np.int64 if p == 3 else object)
    for _ in range(30):
        a = np.array([[rng.randrange(p) if rng.random() < 0.6 else 0
                       for _ in range(5)] for _ in range(rng.randrange(1, 5))],
                     dtype=dtype)
        red, piv = np_rref(a, p)
        for padded in (_with_zero_rows(a, rng),
                       np.concatenate([a, np.zeros((4, 5), dtype=dtype)]),
                       # rows that vanish only mod p
                       _with_zero_rows(a, rng) + p * rng.randrange(1, 4)):
            got, gpiv = np_rref(padded, p)
            assert gpiv == piv and got.tolist() == red.tolist()
        # the generic echelon agrees on the padded matrix
        ech = rref(prime_field(p), _with_zero_rows(a, rng).tolist(), 5)
        assert ech.pivots == piv and ech.rows == red.tolist()
    for empty in (np.zeros((6, 5), dtype=dtype), np.zeros((0, 5), dtype=dtype)):
        red, piv = np_rref(empty, p)
        assert red.shape == (0, 5) and piv == []


@pytest.mark.parametrize("p", [2, 3, BIG_P, None])
def test_kernel_of_no_equations_is_the_whole_space(p, monkeypatch):
    f = Q if p is None else prime_field(p)
    calls = []
    np_rref = linalg.np_rref
    monkeypatch.setattr(linalg, "np_rref",
                        lambda a, q: calls.append(len(a)) or np_rref(a, q))
    for width in (1, 4):
        full = Subspace.span(f, width, identity_matrix(f, width))
        for empty in ([], np.zeros((0, width), dtype=np_dtype(p, width))):
            calls.clear()
            assert kernel(f, empty, width) == full
            # the array path: np_kernel, then np_to_subspace
            assert calls == [0, width]


@pytest.mark.parametrize("p", [2, 3, BIG_P])
def test_kernel_takes_arrays(p):
    rng = random.Random(19)
    f = prime_field(p)
    for _ in range(30):
        width = rng.randrange(1, 6)
        rows = [[rng.randrange(p) if rng.random() < 0.5 else 0
                 for _ in range(width)] for _ in range(rng.randrange(1, 8))]
        arr = np.array(rows, dtype=np_dtype(p, width))
        assert kernel(f, arr, width) == kernel(f, arr.tolist(), width)


# rational entries: zero, small integers, and small or huge fractions
Q_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9), st.just(Fraction(0)),
                      NONZERO_Q)


@st.composite
def rational_system(draw):
    """(rows, width), widths 1-6: rows of int and Fraction entries, zero
    rows among them or only zero rows, and a multiple of a row."""
    width = draw(st.integers(1, 6))
    row = st.lists(Q_ENTRIES, min_size=width, max_size=width)
    zero = st.just([0] * width) | st.just([Fraction(0)] * width)
    rows = draw(st.lists(row | zero, min_size=1, max_size=7))
    if draw(st.booleans()):
        c = draw(NONZERO_Q)
        rows.append([c * x for x in draw(st.sampled_from(rows))])
    return rows, width


@settings(max_examples=150, deadline=None)
@given(rational_system(), st.booleans())
def test_np_rref_over_q_matches_the_generic_echelon(system, as_list):
    # the Q regime: a list or an object array, left as it was, eliminated
    # to the canonical RREF in Fractions with its zero rows dropped
    rows, width = system
    given_rows = [list(r) for r in rows]
    a = given_rows if as_list else np.array(rows, dtype=object)
    red, piv = np_rref(a, None)
    ech = rref(Q, rows, width)
    assert piv == ech.pivots and red.tolist() == ech.rows
    assert red.dtype == object and red.shape == (len(piv), width)
    assert all(type(c) is Fraction for row in red.tolist() for c in row)
    if as_list:
        assert given_rows == rows
    else:
        assert a.tolist() == rows


@settings(max_examples=150, deadline=None)
@given(rational_system(), st.booleans())
def test_kernel_over_q_matches_the_generic_echelon(system, as_list):
    rows, width = system
    eqs = rows if as_list else np.array(rows, dtype=object)
    space = kernel(Q, eqs, width)
    assert space == echelon_kernel(Q, rows, width)
    assert all(not any(mat_vec(Q, rows, v)) for v in space.basis)
    assert all(type(c) is Fraction for v in space.basis for c in v)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, BIG_P, None]), st.integers(1, 5),
       st.booleans(), st.data())
def test_mat_inverse_is_a_two_sided_inverse(p, n, singular, data):
    # over F_p and Q: the product with the inverse both ways is I, and a
    # square of rank below n, its last row a combination of the others,
    # has none
    f = Q if p is None else prime_field(p)
    entry = Q_ENTRIES if p is None else st.integers(0, p - 1)
    m = [[f.coerce(data.draw(entry)) for _ in range(n)] for _ in range(n)]
    if singular:
        cs = [f.coerce(data.draw(entry)) for _ in range(n - 1)]
        m[-1] = [functools.reduce(f.add, (f.mul(c, row[j]) for c, row in
                                          zip(cs, m)), f.zero)
                 for j in range(n)]
    inv = mat_inverse(f, m)
    if rref(f, m, n).rank < n:
        assert inv is None
    else:
        assert mat_mul(f, m, inv) == mat_mul(f, inv, m) == identity_matrix(f, n)
    assert singular <= (inv is None)


def int_matmul(a, b, p):
    """a @ b mod p for 2-d nested lists, in Python ints."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a]


def primes_at_the_float_bound(k):
    """The largest prime p with k (p - 1)^2 < 2^53, and the least prime
    past it: the last one `np_matmul` multiplies in float64, the first one
    it keeps in int64."""
    q = math.isqrt((2 ** 53 - 1) // k)     # the largest p - 1 under the bound
    below = next(p for p in range(q + 1, 1, -1) if _is_prime(p))
    above = next(p for p in range(q + 2, 2 * q + 4) if _is_prime(p))
    assert k * (below - 1) ** 2 < 2 ** 53 <= k * (above - 1) ** 2
    return below, above


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64),
       st.sampled_from(["small", "below", "above", "reduction"]),
       st.sampled_from([2, 3, 19, 251]), st.integers(0, 3),
       st.sampled_from(["uniform", "extreme", "signed"]),
       st.sampled_from(["int64", "object", "mixed"]), st.integers(0, 2 ** 32))
def test_np_matmul_is_exact(m, k, n, where, small, stack, entries, dtype, seed):
    # stacks of 0-3 (then 2-d), with b shared by the stack or stacked too
    p = {"small": small, "reduction": 33554393}.get(where)
    if p is None:
        p = primes_at_the_float_bound(k)[where == "above"]
    rng = np.random.default_rng(seed)

    def draw(shape):
        if entries == "extreme":
            return np.full(shape, p - 1, dtype=np.int64)
        low = -(p - 1) if entries == "signed" else 0
        return rng.integers(low, p, size=shape, dtype=np.int64)
    lead = (stack,) if stack else ()
    a = draw(lead + (m, k))
    b = draw((lead if seed % 2 else ()) + (k, n))
    if dtype != "int64":
        a = a.astype(object)
        b = b.astype(object) if dtype == "object" else b
    got = np_matmul(a, b, p)
    assert got.shape == lead + (m, n)
    pairs = zip(a, np.broadcast_to(b, lead + (k, n))) if stack else [(a, b)]
    want = [int_matmul(x.tolist(), y.tolist(), p) for x, y in pairs]
    assert got.reshape(-1, m, n).tolist() == want


def planted_rows(rng, p, m, n):
    """m rows of width n spanning at most r <= n dimensions: zero rows,
    multiples of r sparse or dense basis rows, and random combinations
    of them, some shifted by multiples of p so that they are residues
    only mod p."""
    r = rng.randint(0, n)
    density = rng.choice([0.3, 1.0])
    basis = [[rng.randrange(p) if rng.random() < density else 0
              for _ in range(n)] for _ in range(r)]
    rows = []
    for _ in range(m):
        kind = rng.random()
        if not basis or kind < 0.2:
            row = [0] * n
        elif kind < 0.5:
            c = rng.randrange(p)
            row = [c * x % p for x in rng.choice(basis)]
        else:
            cs = [rng.randrange(p) for _ in basis]
            row = [sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(n)]
        if rng.random() < 0.2:
            row = [x + p * rng.randint(-2, 2) for x in row]
        rows.append(row)
    return rows, r


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 33554393, EDGE_P, BIG_P]),
       st.one_of(st.integers(1, 16), st.integers(17, 200)), st.integers(1, 16),
       st.sampled_from(["random", "planted"]), st.booleans(),
       st.integers(0, 2 ** 32))
def test_np_rref_matches_the_generic_echelon(p, m, n, kind, as_list, seed):
    # sparse or dense rows with repeats and multiples, or up to 200 rows of
    # a planted rank: every regime of np_rref (lists, blocks, the array
    # loop), tall systems of several blocks included, against the
    # generic echelon; at EDGE_P and width 16 the rows are int64 at its
    # bound.  The input, a list or an array, is left as it was, and the
    # result has the dtype in which the module's spin multiplies it.
    rng = random.Random(seed)
    if kind == "random":
        density = rng.choice([0.4, 1.0])
        rows = [[rng.randrange(p) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(min(m, 16))]
        rows += [[c * rng.randrange(p) % p for c in rng.choice(rows)]
                 for _ in range(rng.randrange(3))]
        rank = n
    else:
        rows, rank = planted_rows(rng, p, m, n)
    given_rows = [list(r) for r in rows]
    a = given_rows if as_list else np.array(rows, dtype=np_dtype(p, n))
    before = a.copy() if not as_list else None
    red, piv = np_rref(a, p)
    ech = rref(prime_field(p), [[x % p for x in r] for r in rows], n)
    assert piv == ech.pivots and red.tolist() == ech.rows
    assert red.dtype == np_dtype(p, n) and red.shape == (len(piv), n)
    assert len(piv) <= rank
    if as_list:
        assert given_rows == rows
    else:
        assert a.dtype == before.dtype and (a == before).all()


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("seed", range(8))
def test_np_rref_by_blocks_matches_the_generic_echelon(p, seed):
    # tall systems of a planted rank, dense enough for the block regime:
    # several blocks, rows left zero by a block's reduction, and ranks
    # below the width, where every block runs
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    r = rng.randint(1, n)
    basis = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    rows = [[sum(c * b[j] for c, b in zip(cs, basis)) % p for j in range(n)]
            for cs in ([rng.randrange(p) for _ in basis]
                       for _ in range(rng.randint(64, 200)))]
    a = np.array(rows, dtype=np_dtype(p, n))
    with mock.patch.object(linalg, "_rref_by_blocks",
                           wraps=linalg._rref_by_blocks) as blocks:
        red, piv = np_rref(a, p)
    assert blocks.called
    ech = rref(prime_field(p), rows, n)
    assert piv == ech.pivots and red.tolist() == ech.rows
    assert (a == np.array(rows)).all()


@pytest.mark.parametrize("p, m, n, density, regime", [
    (3, 8, 16, 1.0, "lists"),           # at most _BLOCK rows
    (3, 40, 16, 0.05, "lists"),         # at most 3 nonzeros per column
    (3, 16, 16, 1.0, "loop"),           # dense, under _LARGE entries
    (3, 64, 16, 1.0, "blocks"),         # _LARGE entries and up
    (7, 200, 4, 1.0, "blocks"),
    (181, 12, 6, 1.0, "loop"),
    (32749, 8, 16, 1.0, "lists"),       # the largest p with (p - 1)^2 < 2^30
    (32771, 8, 16, 1.0, "loop"),        # the least prime past it
    (33554393, 4, 2, 1.0, "loop"),
    (33554393, 64, 16, 1.0, "loop"),
    (BIG_P, 4, 2, 1.0, "loop"),
])
def test_np_rref_selects_its_regime(p, m, n, density, regime):
    # lists while a residue product is one CPython digit (30 bits on the
    # usual builds) and the system is small or sparse, blocks for a large
    # one, the array loop for the rest and for every system past the bound
    if (p - 1) ** 2 >= 2 ** sys.int_info.bits_per_digit:
        regime = "loop"
    rng = random.Random(m * n + p)
    rows = [[rng.randrange(1, p) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]
    spies = {name: mock.patch.object(linalg, name, wraps=getattr(linalg, name))
             for name in ("_gauss_jordan", "_rref_by_blocks", "_rref_loop")}
    with spies["_gauss_jordan"] as lists, spies["_rref_by_blocks"] as blocks, \
            spies["_rref_loop"] as loop:
        red, piv = np_rref(np.array(rows, dtype=np_dtype(p, n)), p)
    assert (loop.called, blocks.called) == (regime == "loop", regime == "blocks")
    assert lists.called == (regime != "loop")
    ech = rref(prime_field(p), rows, n)
    assert piv == ech.pivots and red.tolist() == ech.rows


@pytest.mark.parametrize("p", [3, BIG_P])
def test_np_to_subspace_holds_python_ints(p):
    # one tolist() gives the basis the old per-entry int() gave, for int64
    # and object arrays alike
    f = prime_field(p)
    rng = random.Random(23)
    for _ in range(20):
        rows = np.array([[rng.randrange(p) for _ in range(5)]
                         for _ in range(rng.randrange(1, 7))],
                        dtype=np_dtype(p, 5))
        space = linalg.np_to_subspace(f, rows, 5)
        red, piv = np_rref(rows, p)
        assert space.basis == tuple(tuple(int(c) for c in row) for row in red)
        assert all(type(c) is int for row in space.basis for c in row)
        assert space == Subspace.span(f, 5, rows.tolist())


AFFINE_KINDS = ["consistent", "inconsistent", "width-1", "all-zero",
                "singular"]


def affine_system(kind, f, rng):
    """(A, b) over the field f of the given kind: A x = b for a random x;
    with a row that sums two others but whose right-hand side does not;
    with one unknown; all zero, b as well or not; square of rank below its
    size.  Over Q the entries are small fractions."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "width-1":
        n = 1
    if f.is_finite:
        draw = lambda: rng.randrange(f.p)
        nonzero = lambda: 1 + draw() % (f.p - 1)
    else:
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        nonzero = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                   rng.randint(1, 6))
    total = lambda xs: functools.reduce(f.add, xs, f.zero)
    a = [[draw() for _ in range(n)] for _ in range(m)]
    if kind == "all-zero":
        a = [[f.zero] * n for _ in range(m)]
    if kind == "singular":
        a = [[draw() for _ in range(n)] for _ in range(n - 1)] or [[f.zero] * n]
        a.append([total(col) for col in zip(*a)])
    x = [draw() for _ in range(n)]
    b = [total(f.mul(c, v) for c, v in zip(row, x)) for row in a]
    if kind == "inconsistent":
        a.append([f.add(u, v) for u, v in zip(a[0], a[-1])])
        b.append(f.add(f.add(b[0], b[-1]), nonzero()))
    if kind == "all-zero" and rng.random() < 0.5:
        b[-1] = f.one
    return a, b


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 33554393, BIG_P]), st.sampled_from(AFFINE_KINDS),
       st.integers(0, 2 ** 32))
def test_fp_affine_solve_matches_the_generic_echelon(p, kind, seed):
    f = prime_field(p)
    a, b = affine_system(kind, f, random.Random(seed))
    x, hom = solve_affine(f, a, b)
    assert (x, hom) == echelon_solve(f, a, b)
    if kind == "inconsistent":
        assert x is None
    if x is not None:
        assert mat_vec(f, a, x) == tuple(c % p for c in b)
        assert all(type(c) is int for c in x)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(AFFINE_KINDS), st.integers(0, 2 ** 32))
def test_q_affine_solve_matches_the_generic_echelon(kind, seed):
    a, b = affine_system(kind, Q, random.Random(seed))
    x, hom = solve_affine(Q, a, b)
    assert (x, hom) == echelon_solve(Q, a, b)
    if kind == "inconsistent":
        assert x is None
    if x is not None:
        assert mat_vec(Q, a, x) == tuple(b)
        assert all(type(c) is Fraction for c in x)


def test_fp_affine_solve_is_one_elimination_and_its_kernel():
    rows = [(1, 1, 0), (0, 1, 2)]
    with mock.patch.object(linalg, "np_rref", wraps=linalg.np_rref) as rref_spy, \
            mock.patch.object(linalg.Echelon, "add",
                              autospec=True, side_effect=linalg.Echelon.add) as add_spy:
        x, hom = solve_affine(F3, rows, (2, 1))
    assert mat_vec(F3, rows, x) == (2, 1) and hom.rank == 1
    # [A | b], then the kernel basis into canonical form
    assert rref_spy.call_count == 2 and add_spy.call_count == 0
