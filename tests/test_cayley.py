import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import catalog, cayley
from gradix.algebra import (center_is_field, is_associative, make_algebra,
                            multiply, nucleus_and_center, simple_under,
                            two_sided_inverse)
from gradix.catalog import (field_algebra, matrix_algebra, octonions,
                            product_algebra, quadratic_field_extension,
                            quaternions, truncated_dual)
from gradix.cayley import (cayley_double, doubling_report, is_star_simple,
                           mu_square_in_center, star_centers, tower,
                           tower_stages)
from gradix.errors import (BudgetExceeded, ExactModeUnavailable, MuZero,
                           ValidationError)
from gradix.fields import prime_field, rationals
from gradix.graded import is_graded_simple
from gradix.linalg import Subspace, kernel, projective_points, projective_walk
from helpers import (NONZERO_Q, cayley_double_loop, entries, extension_field,
                     first_nonsquare_by_squares, fixed_subspace, intersect, mu_square_by_vectors, product_table, product_table_loop,
                     product_with_swap, random_unital_algebra, rescaled,
                     sedenions, star_rows_loop, tensor_algebra,
                     walk_without_points)

F3 = prime_field(3)
F5 = prime_field(5)
Q = rationals()


def bases_f3():
    return [field_algebra(F3), quadratic_field_extension(F3),
            product_with_swap(F3), quaternions(F3)[0]]


def test_double_product_law():
    rng = random.Random(2)
    base = quaternions(F3)[0]
    mu = F3.coerce(2)
    dbl, _ = cayley_double(base, mu)
    d = base.dim
    for _ in range(40):
        a, b, c, e = (tuple(rng.randrange(3) for _ in range(d))
                      for _ in range(4))
        left = multiply(dbl, a + b, c + e)
        first = base.add_vec(multiply(base, a, c),
                             base.scale(mu, multiply(base, base.star(e), b)))
        second = base.add_vec(multiply(base, e, a),
                              multiply(base, b, base.star(c)))
        assert left == first + second


def test_double_involution_and_adjoined_square():
    base = quadratic_field_extension(F3)
    mu = F3.coerce(2)
    dbl, grad = cayley_double(base, mu)
    d = base.dim
    a = (1, 2)
    b = (0, 1)
    v = a + b
    assert dbl.star(v) == base.star(a) + tuple(F3.neg(c) for c in b)
    # l * l = mu
    l = dbl.basis_vector(d)
    assert multiply(dbl, l, l) == dbl.scalar_vec(mu)
    # gradation puts the old part in degree 0 and the new part in degree 1
    assert grad.degrees == (0,) * d + (1,) * d


def test_mu_zero_rejected():
    with pytest.raises(MuZero):
        cayley_double(field_algebra(F3), 0)


def test_double_of_f3_by_nonsquare_is_f9():
    dbl, _ = cayley_double(field_algebra(F3), 2)
    assert simple_under(dbl).simple
    assert center_is_field(dbl)
    for v in projective_points(3, 2):
        assert two_sided_inverse(dbl, v) is not None


def test_double_of_f5_by_square_splits():
    dbl, _ = cayley_double(field_algebra(F5), 4)
    rep = doubling_report(field_algebra(F5), F5.coerce(4), dbl)
    assert not rep.criterion_simple
    assert not rep.brute_simple
    assert rep.consistent
    assert rep.brute_witness is not None
    # the witness generates the ideal (x - 2) or (x + 2)
    from gradix.algebra import ideal_closure
    w = ideal_closure(dbl, [rep.brute_witness])
    assert w.rank == 1


def mu_square(alg, mu):
    return mu_square_in_center(alg, nucleus_and_center(alg).center, mu)


def test_mu_square_is_center_relative():
    assert mu_square(field_algebra(F3), F3.coerce(1)) is True
    assert mu_square(field_algebra(F3), F3.coerce(2)) is False
    # 2 becomes a square after extending the scalars
    ext = quadratic_field_extension(F3)
    assert mu_square(ext, F3.coerce(2)) is True


def truncated_cube(f):
    """F[x]/(x^3): a local centre of rank 3 that is not a field."""
    entries = [(i, j, i + j, f.one) for i in range(3) for j in range(3) if i + j < 3]
    return make_algebra(f, 3, entries, (f.one, f.zero, f.zero))


SQUARE_CASES = {
    "F_p^n": lambda f, rng, n: product_algebra(f, n),
    "dual numbers": lambda f, rng, n: truncated_dual(f),
    "F[x]/(x^3)": lambda f, rng, n: truncated_cube(f),
    "F_{p^2}": lambda f, rng, n: quadratic_field_extension(f),
    "F_{p^n}": lambda f, rng, n: extension_field(f, n, rng),
    "M_2": lambda f, rng, n: matrix_algebra(f, 2),
    "M_2 (x) F_{p^2}": lambda f, rng, n: tensor_algebra(
        matrix_algebra(f, 2), quadratic_field_extension(f)),
}


def test_mu_square_matches_the_vector_walk():
    # the projective walk against all p^r vectors, on centres of rank 1 to
    # 3 over F_2, F_3, F_5 and F_7, fields and non-fields
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.sampled_from(sorted(SQUARE_CASES)),
           st.integers(1, 3), st.integers(0, 6), st.integers(0, 2 ** 32))
    def check(p, kind, n, mu, seed):
        f = prime_field(p)
        alg = SQUARE_CASES[kind](f, random.Random(seed), n)
        center = nucleus_and_center(alg).center
        got = mu_square_in_center(alg, center, mu)
        assert got == mu_square_by_vectors(alg, center, mu), (p, kind, n, mu)
        seen.add((center.rank, got))

    check()
    assert {r for r, _ in seen} == {1, 2, 3} and {g for _, g in seen} == {True, False}


def test_square_check_refused_past_the_budget(monkeypatch):
    # F_3^3: 13 projective points; refused before the first at budget 12
    monkeypatch.setattr(cayley, "projective_walk",
                        walk_without_points(projective_walk))
    alg = product_algebra(F3, 3)
    center = nucleus_and_center(alg).center
    with pytest.raises(BudgetExceeded,
                       match="13 projective points of a square check exceed budget 12"):
        mu_square_in_center(alg, center, 2, budget=12)
    with pytest.raises(AssertionError, match="visited"):
        mu_square_in_center(alg, center, 2, budget=13)


def test_mu_square_over_q():
    assert mu_square(field_algebra(Q), Q.coerce(4)) is True
    assert mu_square(field_algebra(Q), Q.coerce(2)) is False
    assert mu_square(field_algebra(Q), Q.coerce("9/4")) is True


def test_star_centers():
    # trivial involution: everything symmetric, Z_** = Z
    base = field_algebra(F3)
    zs, zss = star_centers(base)
    assert zs.rank == 1 and zss.rank == 1
    # Frobenius involution on F9: only the prime field is symmetric
    ext = quadratic_field_extension(F3)
    zs, zss = star_centers(ext)
    assert zs.rank == 1
    assert zss.rank == 0
    assert zs.contains(ext.unit)


def intersected_star_centers(alg):
    """Z_* and Z_** built by intersections: Z(A) cut by the fixed space of
    the involution, then by the kernel of the rows of every R_{b - b*}."""
    z_star = intersect(nucleus_and_center(alg).center,
                       fixed_subspace(alg, (alg.involution,)))
    return z_star, intersect(z_star, kernel(alg.field, star_rows_loop(alg),
                                            alg.dim))


def exchange_algebra(f, rng):
    """B x B^op for a random unital B, with the exchange involution."""
    b = random_unital_algebra(f, rng.randint(1, 3), rng)
    d = b.dim
    items = [(i, j, k, c) for i, j, k, c in entries(b)]
    items += [(d + j, d + i, d + k, c) for i, j, k, c in entries(b)]
    swap = [[f.one if c == (r + d) % (2 * d) else f.zero for c in range(2 * d)]
            for r in range(2 * d)]
    return make_algebra(f, 2 * d, items, b.unit * 2, involution=swap)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([prime_field(2), F3, F5]),
       st.sampled_from(["base", "double", "exchange"]),
       st.randoms(use_true_random=False))
def test_star_centers_match_the_intersections(f, kind, rng):
    if kind == "exchange":
        alg = exchange_algebra(f, rng)
    else:
        alg = rng.choice([field_algebra(f), quadratic_field_extension(f),
                          product_with_swap(f), quaternions(f)[0]])
        if kind == "double":
            alg, _ = cayley_double(alg, rng.randrange(1, f.p))
    assert star_centers(alg) == intersected_star_centers(alg)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([prime_field(2), F3, F5, prime_field(7), Q]),
       st.sampled_from(["base", "double", "exchange"]),
       st.randoms(use_true_random=False), st.data())
def test_tensor_double_matches_the_loop(f, kind, rng, data):
    """The double's tensor, assembled from four blocks of A's, has the
    constants that the products give one by one: over F_2 to F_7, and over
    Q with a fractional mu on bases rescaled by rationals whose numerators
    or denominators reach 2^70.  Over Q, Z_* and Z_** match the
    intersections too."""
    nonzero = (lambda: rng.randrange(1, f.p)) if f.is_finite else \
        (lambda: data.draw(NONZERO_Q))
    if kind == "exchange":
        alg = exchange_algebra(f, rng)
    else:
        bases = [field_algebra, product_with_swap, lambda f: quaternions(f)[0]]
        if f.is_finite:
            bases.append(quadratic_field_extension)
        alg = rng.choice(bases)(f)
        if kind == "double":
            alg, _ = cayley_double(alg, nonzero())
    if not f.is_finite:
        alg = rescaled(alg, [nonzero() for _ in range(alg.dim)])
    mu = nonzero()
    dbl, grad = cayley_double(alg, mu)
    items, unit = cayley_double_loop(alg, mu)
    assert entries(dbl) == entries(make_algebra(f, dbl.dim, items, unit))
    assert dbl.unit == unit
    assert product_table(dbl) == product_table_loop(dbl)
    assert grad.degrees == (0,) * alg.dim + (1,) * alg.dim
    if not f.is_finite:
        assert all(type(c) is Fraction for *_, c in entries(dbl))
        assert star_centers(alg) == intersected_star_centers(alg)


@pytest.mark.parametrize("mu_raw", [1, 2])
def test_center_of_double_decomposes(mu_raw):
    mu = F3.coerce(mu_raw)
    for base in bases_f3():
        dbl, _ = cayley_double(base, mu)
        zs, zss = star_centers(base)
        d = base.dim
        zero = (F3.zero,) * d
        embedded = [row + zero for row in zs.basis] + \
                   [zero + row for row in zss.basis]
        want = Subspace.span(F3, 2 * d, embedded)
        assert nucleus_and_center(dbl).center.basis == want.basis


@pytest.mark.parametrize("mu_raw", [1, 2])
def test_graded_simple_iff_star_simple(mu_raw):
    mu = F3.coerce(mu_raw)
    for base in bases_f3():
        dbl, grad = cayley_double(base, mu)
        assert (is_graded_simple(dbl, grad).simple
                == is_star_simple(base).simple)


def test_center_field_dichotomy():
    for base in bases_f3():
        for mu_raw in (1, 2):
            mu = F3.coerce(mu_raw)
            dbl, _ = cayley_double(base, mu)
            trivial = base.involution == tuple(
                tuple(F3.one if i == j else F3.zero
                      for j in range(base.dim)) for i in range(base.dim))
            if trivial:
                want = center_is_field(base) and not mu_square(base, mu)
            else:
                zs, _ = star_centers(base)
                from gradix.algebra import subfield_check
                want = subfield_check(base, zs)
            assert center_is_field(dbl) == want


def test_criterion_equals_brute_on_f3_bases():
    for base in bases_f3():
        for mu_raw in (1, 2):
            mu = F3.coerce(mu_raw)
            rep = doubling_report(base, mu, cayley_double(base, mu)[0])
            assert rep.brute_simple is not None
            assert rep.criterion_simple == rep.brute_simple
            assert rep.consistent


def test_nontrivial_involution_gives_simple_double():
    # F9 with Frobenius: Z_* = F3 is a field, so any mu works
    ext = quadratic_field_extension(F3)
    for mu_raw in (1, 2):
        mu = F3.coerce(mu_raw)
        rep = doubling_report(ext, mu, cayley_double(ext, mu)[0])
        assert rep.criterion_simple and rep.brute_simple


def test_tower_structure():
    stages = tower(F3, [F3.coerce(1), F3.coerce(1)])
    assert [s.algebra.dim for s in stages] == [1, 2, 4]
    assert stages[1].algebra.labels == ("1", "i")
    assert stages[2].algebra.labels == ("1", "i", "j", "ij")
    assert stages[2].gradation.degrees == (0, 1, 2, 3)
    # mu = 1 is a square: first double splits, second is M_2(F3)
    assert not stages[1].report.criterion_simple
    assert stages[2].report.criterion_simple
    assert stages[2].report.brute_simple


def test_tower_reaches_octonions():
    minus = F3.coerce(-1)
    stages = tower(F3, [minus, minus, minus])
    assert stages[-1].algebra.dim == 8
    assert entries(stages[-1].algebra) == entries(octonions(F3)[0])
    assert stages[-1].report.criterion_simple


def test_rationals_report_unavailable():
    base = field_algebra(Q)
    with pytest.raises(ExactModeUnavailable):
        doubling_report(base, Q.coerce(2), cayley_double(base, 2)[0])
    with pytest.raises(ExactModeUnavailable):
        tower(Q, [Q.coerce(2)])


def test_tower_builds_and_judges_each_stage_once(monkeypatch):
    calls = {"cayley_double": 0, "fixed_center": 0}
    for name in calls:
        real = getattr(cayley, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cayley, name, counted)
    stages = tower(F3, [F3.coerce(-1)] * 3)
    # each double is judged by two kernels of the base: Z and Z_*
    assert calls == {"cayley_double": 3, "fixed_center": 6}
    # the reporting tower builds what the pure builder builds
    built = list(tower_stages(F3, [F3.coerce(-1)] * 3))
    assert [(s.algebra, s.gradation) for s in stages] == built


def test_catalog_builds_over_q():
    for build, dim in ((quaternions, 4), (octonions, 8), (sedenions, 16)):
        alg, grad = build(Q)
        assert alg.dim == dim
        assert grad.degrees == tuple(range(dim))
    assert is_associative(quaternions(Q)[0])
    assert not is_associative(octonions(Q)[0])
    assert octonions(prime_field(101))[0].dim == 8


def test_first_nonsquare_matches_the_squares_below_200():
    def outcome(find, p):
        try:
            return find(p)
        except ValidationError as exc:
            return str(exc)
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    assert len(primes) == 46
    for p in primes:
        assert (outcome(catalog._first_nonsquare, p)
                == outcome(first_nonsquare_by_squares, p))


def test_quadratic_extension_of_a_large_prime_field():
    # the set of all p - 1 squares would not fit in memory
    f = prime_field(4294967311)
    start = time.perf_counter()
    ext = quadratic_field_extension(f)
    assert time.perf_counter() - start < 1.0
    c = multiply(ext, (0, 1), (0, 1))[0]
    assert pow(c, (f.p - 1) // 2, f.p) == f.p - 1
    assert all(pow(b, (f.p - 1) // 2, f.p) == 1 for b in range(2, c))
