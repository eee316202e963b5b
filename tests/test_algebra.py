import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import algebra
from gradix.algebra import (SimplicityVerdict, associator, center_is_field,
                            commutator, conjugation_matrix, ideal_closure,
                            is_associative, is_ring_automorphism, is_simple,
                            make_algebra, multiply, nucleus_and_center,
                            simple_under, subfield_check, two_sided_inverse)
from gradix.catalog import (field_algebra, matrix_algebra, octonions,
                            product_algebra, product_with_swap,
                            quadratic_field_extension, quaternions,
                            random_unital_algebra, truncated_dual)
from gradix.cayley import cayley_double
from gradix.errors import (DimensionMismatch, ExactModeUnavailable,
                           ValidationError)
from gradix.fields import prime_field, rationals
from gradix.linalg import Subspace, projective_points, rref

F2 = prime_field(2)
F3 = prime_field(3)
Q = rationals()
PRIMES = st.sampled_from([2, 3, 5])


def small_corpus():
    """Associative and nonassociative algebras small enough to enumerate."""
    rng = random.Random(5)
    out = [
        product_algebra(F2, 2),
        product_algebra(F3, 3),
        truncated_dual(F3),
        quadratic_field_extension(F3),
        matrix_algebra(F2, 2),
        quaternions(F3)[0],
    ]
    out += [random_unital_algebra(F2, d, rng) for d in (2, 3, 4)]
    out += [random_unital_algebra(F3, 2, rng) for _ in range(2)]
    return out


def all_vectors(alg):
    return itertools.product(range(alg.field.p), repeat=alg.dim)


def test_make_algebra_validation():
    with pytest.raises(ValidationError):
        # unit fails on the second basis vector
        make_algebra(F3, 2, [(0, 0, 0, 1)], (1, 0))
    with pytest.raises(DimensionMismatch):
        make_algebra(F3, 2, [(0, 0, 0, 1)], (1,))
    with pytest.raises(ValidationError):
        make_algebra(F3, 2, [(0, 0, 2, 1)], (1, 0))
    for dim in (0, -1):
        with pytest.raises(ValidationError):
            make_algebra(F3, dim, [], ())
    with pytest.raises(ValidationError):
        # involution must be an antiautomorphism
        make_algebra(F3, 2,
                     [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)],
                     (1, 0), involution=((1, 0), (1, 1)))


def test_multiply_bilinear_unital():
    rng = random.Random(1)
    a = random_unital_algebra(F3, 4, rng)
    for _ in range(30):
        x, y, z = (tuple(rng.randrange(3) for _ in range(4)) for _ in range(3))
        c = rng.randrange(3)
        lhs = multiply(a, a.add_vec(x, a.scale(c, y)), z)
        rhs = a.add_vec(multiply(a, x, z), a.scale(c, multiply(a, y, z)))
        assert lhs == rhs
        assert multiply(a, a.unit, x) == x == multiply(a, x, a.unit)


def brute_membership_spaces(alg):
    """Oracle: classify every vector by the defining identities directly."""
    z = alg.zero_vec()
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    sets = {"left": [], "middle": [], "right": [], "commuter": [], "center": []}
    for v in all_vectors(alg):
        in_l = all(associator(alg, v, x, y) == z for x in basis for y in basis)
        in_m = all(associator(alg, x, v, y) == z for x in basis for y in basis)
        in_r = all(associator(alg, x, y, v) == z for x in basis for y in basis)
        comm = all(commutator(alg, v, x) == z for x in basis)
        if in_l:
            sets["left"].append(v)
        if in_m:
            sets["middle"].append(v)
        if in_r:
            sets["right"].append(v)
        if comm:
            sets["commuter"].append(v)
        if comm and in_l and in_m and in_r:
            sets["center"].append(v)
    return sets


@pytest.mark.parametrize("idx", range(6))
def test_nuclei_against_enumeration(idx):
    alg = small_corpus()[idx]
    if alg.field.p ** alg.dim > 3 ** 4:
        pytest.skip("enumeration oracle too large")
    got = nucleus_and_center(alg)
    brute = brute_membership_spaces(alg)
    for name, space in (("left", got.left), ("middle", got.middle),
                        ("right", got.right), ("commuter", got.commuter),
                        ("center", got.center)):
        members = {v for v in all_vectors(alg) if space.contains(v)}
        assert members == set(brute[name]), name


def echelon_kernel(f, rows, d):
    """Solution space through the Python Echelon path: rref, then one basis
    vector per free column, as in the generic branch of `kernel`."""
    ech = rref(f, rows, d)
    vecs = []
    for fcol in (j for j in range(d) if j not in ech.pivots):
        v = [f.zero] * d
        v[fcol] = f.one
        for row, piv in zip(ech.rows, ech.pivots):
            v[piv] = f.neg(row[fcol])
        vecs.append(v)
    return Subspace.span(f, d, vecs)


NUCLEUS_CASES = [
    lambda f, rng: random_unital_algebra(f, rng.randint(1, 5), rng),
    lambda f, rng: product_algebra(f, rng.randint(1, 4)),
    lambda f, rng: matrix_algebra(f, 2),
    lambda f, rng: truncated_dual(f),
    lambda f, rng: product_with_swap(f),
    lambda f, rng: octonions(f)[0],
]


@settings(max_examples=120, deadline=None)
@given(PRIMES, st.sampled_from(NUCLEUS_CASES), st.integers(0, 2 ** 32))
def test_nucleus_and_center_match_echelon_path(p, case, seed):
    f = prime_field(p)
    alg = case(f, random.Random(seed))
    dim = alg.dim
    left, middle, right, comm = algebra._nucleus_blocks_generic(alg)
    got = nucleus_and_center(alg)
    assert got.left == echelon_kernel(f, left, dim)
    assert got.middle == echelon_kernel(f, middle, dim)
    assert got.right == echelon_kernel(f, right, dim)
    assert got.nucleus == echelon_kernel(f, left + middle + right, dim)
    assert got.commuter == echelon_kernel(f, comm, dim)
    assert got.center == echelon_kernel(f, left + middle + right + comm, dim)


def test_center_is_triple_intersection():
    for alg in small_corpus():
        c = nucleus_and_center(alg)
        for a, b in ((c.left, c.middle), (c.left, c.right),
                     (c.middle, c.right)):
            assert c.commuter.intersect(a).intersect(b).basis == c.center.basis


def test_associator_five_term_identity():
    rng = random.Random(3)
    algs = [octonions(F3)[0], random_unital_algebra(F2, 4, rng)]
    for alg in algs:
        p = alg.field.p
        for _ in range(40):
            u, r, s, t = (tuple(rng.randrange(p) for _ in range(alg.dim))
                          for _ in range(4))
            lhs = alg.add_vec(
                alg.add_vec(multiply(alg, u, associator(alg, r, s, t)),
                            multiply(alg, associator(alg, u, r, s), t)),
                associator(alg, u, multiply(alg, r, s), t))
            rhs = alg.add_vec(associator(alg, multiply(alg, u, r), s, t),
                              associator(alg, u, r, multiply(alg, s, t)))
            assert lhs == rhs


def test_central_inverses_are_central():
    # r central and rs = sr = 1 forces s central
    for alg in small_corpus():
        central = nucleus_and_center(alg).center
        for r in central.coordinates():
            s = two_sided_inverse(alg, r)
            if s is not None:
                assert central.contains(s)


def test_nuclear_units_have_nuclear_inverses():
    for alg in small_corpus():
        nucleus = nucleus_and_center(alg).nucleus
        for u in nucleus.coordinates():
            inv = two_sided_inverse(alg, u)
            if inv is not None:
                assert nucleus.contains(inv)


def test_simple_implies_center_field():
    for alg in small_corpus():
        if is_simple(alg, mode="exact").simple:
            assert center_is_field(alg)


def test_ideal_closure_is_smallest_ideal():
    rng = random.Random(9)
    for _ in range(20):
        alg = random_unital_algebra(F2, rng.randint(1, 4), rng)
        seed = tuple(rng.randrange(2) for _ in range(alg.dim))
        closed = ideal_closure(alg, [seed])
        assert closed.contains(seed) or not any(seed)
        for v in closed.basis:
            for j in range(alg.dim):
                assert closed.contains(alg.left_by_basis(j, v))
                assert closed.contains(alg.right_by_basis(j, v))


def test_simplicity_known_answers():
    assert is_simple(matrix_algebra(F3, 2), mode="exact").simple
    assert is_simple(quaternions(F3)[0], mode="exact").simple
    assert is_simple(octonions(F3)[0], mode="exact").simple
    v = is_simple(product_algebra(F3, 2), mode="exact")
    assert not v.simple and v.witness is not None
    # the witness generates a proper ideal
    w = ideal_closure(product_algebra(F3, 2), [v.witness])
    assert 0 < w.rank < 2
    assert not is_simple(truncated_dual(F3), mode="exact").simple


def test_simple_under_invariant_maps():
    # F3 x F3 is not simple, but is simple as an algebra-with-swap
    alg = product_algebra(F3, 2)
    swap = ((0, 1), (1, 0))
    assert not is_simple(alg, mode="exact").simple
    assert simple_under(alg, maps=(swap,), mode="exact").simple


def sweep_verdict(alg, maps=()):
    """The projective sweep alone: the reference for the density test."""
    checked = 0
    for pt in projective_points(alg.field.p, alg.dim):
        checked += 1
        if not algebra._closure_is_full(alg, pt, maps):
            return SimplicityVerdict(False, pt, "exact", checked)
    return SimplicityVerdict(True, None, "exact", checked)


def assert_density_matches_sweep(alg, maps=()):
    ref = sweep_verdict(alg, maps)
    gens = algebra._np_generators(alg, maps)
    assert algebra._density_irreducible(alg, gens) == ref.simple
    assert simple_under(alg, maps=maps, mode="exact") == ref


@settings(max_examples=200, deadline=None)
@given(PRIMES, st.integers(2, 5), st.integers(0, 2 ** 32))
def test_density_matches_sweep_random_algebras(p, dim, seed):
    assert_density_matches_sweep(
        random_unital_algebra(prime_field(p), dim, random.Random(seed)))


@settings(max_examples=80, deadline=None)
@given(PRIMES, st.sampled_from([field_algebra, quadratic_field_extension,
                                truncated_dual, product_with_swap]),
       st.lists(st.integers(1, 4), min_size=1, max_size=2))
def test_density_matches_sweep_cayley_doubles(p, base, mus):
    f = prime_field(p)
    alg = base(f)
    for mu in mus:
        if alg.dim * 2 > 4:
            break
        alg, _ = cayley_double(alg, mu % p or 1)
    assert_density_matches_sweep(alg)
    assert_density_matches_sweep(alg, (alg.involution,))


@settings(max_examples=80, deadline=None)
@given(PRIMES, st.integers(2, 4), st.randoms(use_true_random=False))
def test_density_matches_sweep_permuted_products(p, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    m = tuple(tuple(int(perm[j] == i) for j in range(n)) for i in range(n))
    assert_density_matches_sweep(product_algebra(prime_field(p), n), (m,))


def test_huge_prime_skips_density(monkeypatch):
    # d^2 (p - 1)^2 >= 2^63: the sweep alone decides, and finds e2 first
    def refuse(alg, maps=()):
        raise AssertionError("density test entered")
    monkeypatch.setattr(algebra, "_density_irreducible", refuse)
    alg = product_algebra(prime_field(2 ** 31 - 1), 2)
    v = is_simple(alg, budget=2 ** 31)
    assert (v.simple, v.witness, v.checked) == (False, (0, 1), 1)


def test_randomized_mode_deterministic_and_consistent():
    alg = matrix_algebra(F3, 2)
    a = simple_under(alg, mode="randomized", trials=50, seed=4)
    b = simple_under(alg, mode="randomized", trials=50, seed=4)
    assert a == b
    assert a.mode == "randomized"
    assert a.simple  # agrees with the exact answer on a simple algebra
    # a nonsimple algebra can never be reported simple by sampling
    c = simple_under(product_algebra(F3, 2), mode="randomized",
                     trials=100, seed=0)
    assert not c.simple


def test_huge_prime_arrays_hold_python_ints():
    # 2 d (p - 1)^2 >= 2^63: int64 sums of products would wrap and lose the
    # center, so the arrays hold Python ints instead
    alg = matrix_algebra(prime_field(4294967311), 2)
    assert alg._np_tensor.dtype == object
    central = nucleus_and_center(alg)
    assert central.center.rank == 1
    assert central.nucleus.rank == 4
    assert ideal_closure(alg, [(1, 0, 0, 0)]).is_full


def test_exact_mode_unavailable_over_q():
    alg = product_algebra(Q, 2)
    with pytest.raises(ExactModeUnavailable):
        is_simple(alg, mode="exact")


def test_inverses_match_the_norm():
    # v v* is a scalar for doubled algebras; invertibility is norm != 0
    qa = quaternions(F3)[0]
    seen_zero_divisor = False
    for v in projective_points(3, qa.dim):
        norm = multiply(qa, v, qa.star(v))
        assert norm[1:] == qa.zero_vec()[1:]
        inv = two_sided_inverse(qa, v)
        assert (inv is not None) == bool(norm[0])
        seen_zero_divisor |= inv is None
    assert seen_zero_divisor  # quaternions split over a finite field
    dual = truncated_dual(F3)
    assert two_sided_inverse(dual, (0, 1)) is None
    assert two_sided_inverse(dual, (1, 1)) is not None


def test_subfield_check():
    ext = quadratic_field_extension(F3)
    full = nucleus_and_center(ext).center
    assert full.rank == 2 and subfield_check(ext, full)
    prod = product_algebra(F3, 2)
    assert not subfield_check(prod, nucleus_and_center(prod).center)


def test_conjugation_is_automorphism():
    m = matrix_algebra(F3, 2)
    u = m.element((1, 1, 0, 1))  # unipotent, invertible
    g = conjugation_matrix(m, u)
    assert is_ring_automorphism(m, g)
    assert not is_ring_automorphism(m, ((1, 0, 0, 0),) * 4)


def test_associativity_flags():
    assert is_associative(matrix_algebra(F2, 2))
    assert not is_associative(octonions(F3)[0])
