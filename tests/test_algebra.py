import inspect
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import algebra, linalg
from gradix.algebra import (Algebra, SimplicityVerdict, associator,
                            associator_defect, center_is_field, commutator,
                            fixed_center,
                            ideal_closure, is_associative,
                            is_ring_automorphism,
                            is_simple, make_algebra, multiply,
                            nucleus_and_center, sample_simple, simple_under,
                            subfield_check, two_sided_inverse)
from gradix.catalog import (field_algebra, frobenius_matrix, group_algebra,
                            matrix_algebra, octonions, product_algebra,
                            quadratic_field_extension, quaternions,
                            swap_matrix, truncated_dual)
from gradix.cayley import cayley_double, is_star_simple
from gradix.crossed import (build_crossed_product, crossed_center,
                            trivial_system, validate_crossed_system)
from gradix.errors import (BudgetExceeded, DimensionMismatch,
                           ExactModeUnavailable, ValidationError)
from gradix.fields import prime_field, rationals
from gradix.graded import is_graded_simple
from gradix.groups import cyclic
from gradix.linalg import (Subspace, identity_matrix, kernel, np_rref,
                           projective_points, projective_walk)
from helpers import (NONZERO_Q, associator_defect_loop, central_stacked,
                     closure_loop, entries, commutant_field_loop,
                     commutative_not_associative, conjugation_matrix,
                     echelon_kernel,
                     extension_field, fixed_center_loop, fixed_subspace,
                     intersect, inverse_system_loop, left_by_basis, mat_mul,
                     density_irreducible,
                     nuclear_mask_loop,
                     nucleus_blocks_loop, points,
                     product_mismatch_loop,
                     product_table, product_table_loop, product_with_swap,
                     random_graded_algebra, random_unital_algebra, rescaled,
                     right_by_basis, sedenions,
                     tensor_algebra, unit_failure_loop, upper_triangular,
                     walk_without_points)

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
    z = alg.scalar_vec(0)
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


NUCLEUS_CASES = [
    lambda f, rng: random_unital_algebra(f, rng.randint(1, 5), rng),
    lambda f, rng: product_algebra(f, rng.randint(1, 4)),
    lambda f, rng: matrix_algebra(f, 2),
    lambda f, rng: truncated_dual(f),
    lambda f, rng: product_with_swap(f),
    lambda f, rng: octonions(f)[0],
    # a slot of rank 1 under a commuter of rank 3, and a nucleus of rank 3
    # inside a left nucleus of rank 5
    lambda f, rng: commutative_not_associative(f),
    lambda f, rng: one_sided_nuclei_algebra(f, rng),
]


@settings(max_examples=120, deadline=None)
@given(PRIMES, st.sampled_from(NUCLEUS_CASES), st.integers(0, 2 ** 32))
def test_nucleus_and_center_match_echelon_path(p, case, seed):
    f = prime_field(p)
    alg = case(f, random.Random(seed))
    dim = alg.dim
    left, middle, right, comm = nucleus_blocks_loop(alg)
    got = nucleus_and_center(alg)
    assert got.left == echelon_kernel(f, left, dim)
    assert got.middle == echelon_kernel(f, middle, dim)
    assert got.right == echelon_kernel(f, right, dim)
    assert got.nucleus == echelon_kernel(f, left + middle + right, dim)
    assert got.commuter == echelon_kernel(f, comm, dim)
    assert got.center == echelon_kernel(f, left + middle + right + comm, dim)
    names = algebra.CENTRAL_NAMES
    assert algebra._central(alg, names) == central_stacked(alg, names)


# (algebra, solves on survivors): nucleus and center unit lines at once
# (a slot of rank 1 under a commuter of rank 3), the nucleus solved and the
# center a unit line through the commuter (associative M_2), and both solved
# (the one-sided nuclei, and associative and commutative F^3)
CENTRAL_BRANCH_CASES = [
    (commutative_not_associative, 0),
    (lambda f: matrix_algebra(f, 2), 1),
    (lambda f: one_sided_nuclei_algebra(f, random.Random(0)), 2),
    (lambda f: product_algebra(f, 3), 2),
]


@pytest.mark.parametrize("f", [F3, Q], ids=repr)
@pytest.mark.parametrize("case", range(len(CENTRAL_BRANCH_CASES)))
def test_central_solves_each_branch_on_survivors(f, case):
    make, solves = CENTRAL_BRANCH_CASES[case]
    alg = make(f)
    names = algebra.CENTRAL_NAMES
    with mock.patch.object(algebra, "_restrict", wraps=algebra._restrict) as spy:
        got = algebra._central(alg, names)
    assert got == central_stacked(alg, names)
    # the nucleus is solved unless a slot has rank 1, the center unless the
    # nucleus or the commuter has; a unit-line nucleus makes a unit-line
    # center, so the count of solves tells the branches apart
    nucleus_solved = min(got[n].rank for n in ("left", "middle", "right")) > 1
    center_solved = min(got["nucleus"].rank, got["commuter"].rank) > 1
    assert spy.call_count == nucleus_solved + center_solved == solves
    if solves == 1:
        assert got["commuter"].rank == 1 < got["nucleus"].rank


def test_a_rank_1_slot_leaves_four_kernels():
    alg = commutative_not_associative(F3)
    with mock.patch.object(linalg, "np_rref", wraps=linalg.np_rref) as spy:
        got = nucleus_and_center(alg)
    assert got.left.rank == 1 and got.commuter.rank == 3
    # left, middle, right and the commuter: `np_rref` of the equations and
    # of the kernel basis each
    assert spy.call_count == 8


def test_center_is_triple_intersection():
    for alg in small_corpus():
        c = nucleus_and_center(alg)
        for a, b in ((c.left, c.middle), (c.left, c.right),
                     (c.middle, c.right)):
            assert intersect(intersect(c.commuter, a), b).basis == c.center.basis


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
        for r in points(central):
            s = two_sided_inverse(alg, r)
            if s is not None:
                assert central.contains(s)


def test_nuclear_units_have_nuclear_inverses():
    for alg in small_corpus():
        nucleus = nucleus_and_center(alg).nucleus
        for u in points(nucleus):
            inv = two_sided_inverse(alg, u)
            if inv is not None:
                assert nucleus.contains(inv)


def test_simple_implies_center_field():
    for alg in small_corpus():
        if simple_under(alg).simple:
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
                assert closed.contains(left_by_basis(alg, j, v))
                assert closed.contains(right_by_basis(alg, j, v))


@st.composite
def closure_cases(draw):
    """An algebra over F_p with d <= 6, maybe a permutation map, and 0-2
    seeds, some of them zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 4294967311]))
    f = prime_field(p)
    dim = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    alg = (product_algebra(f, dim) if draw(st.booleans())
           else random_unital_algebra(f, dim, rng))
    maps = ()
    if draw(st.booleans()):
        perm = list(range(dim))
        rng.shuffle(perm)
        maps = (tuple(tuple(int(perm[j] == i) for j in range(dim))
                      for i in range(dim)),)
    vec = st.one_of(st.just((0,) * dim),
                    st.tuples(*[st.integers(0, p - 1)] * dim),
                    st.tuples(*[st.sampled_from([0, 1, p - 1])] * dim))
    return alg, maps, draw(st.lists(vec, max_size=2))


@settings(max_examples=300, deadline=None)
@given(closure_cases())
def test_ideal_closure_matches_echelon_path(case):
    """The frontier spin over F_p against the field-generic Echelon loop."""
    alg, maps, seeds = case
    assert ideal_closure(alg, seeds, maps) == \
        algebra._closure_echelon(alg, seeds, maps).to_subspace()


def test_simplicity_known_answers():
    m2 = matrix_algebra(F3, 2)
    central = nucleus_and_center(m2)
    assert central.center.rank == 1 and center_is_field(m2, central)
    assert simple_under(m2).simple and is_simple(m2).simple
    assert simple_under(quaternions(F3)[0]).simple
    assert simple_under(octonions(F3)[0]).simple
    v = simple_under(product_algebra(F3, 2))
    assert not v.simple and v.witness is not None
    # the witness generates a proper ideal
    w = ideal_closure(product_algebra(F3, 2), [v.witness])
    assert 0 < w.rank < 2
    assert not simple_under(truncated_dual(F3)).simple


def test_simple_under_invariant_maps():
    # F3 x F3 is not simple, but is simple as an algebra-with-swap
    alg = product_algebra(F3, 2)
    swap = ((0, 1), (1, 0))
    assert not simple_under(alg).simple
    assert simple_under(alg, maps=(swap,)).simple


def sweep_verdict(alg, maps=()):
    """The projective sweep alone: the reference for Norton's test and for
    the density test of `helpers`."""
    checked = 0
    for pt in projective_points(alg.field.p, alg.dim):
        checked += 1
        if not ideal_closure(alg, [pt], maps).is_full:
            return SimplicityVerdict(False, pt, "exact", checked)
    return SimplicityVerdict(True, None, "exact", checked)


def assert_density_matches_sweep(alg, maps=()):
    """The sweep's verdict is that of the density test, the oracle of
    Norton's test at P, of Norton's test where it decides, and of
    `simple_under`."""
    ref = sweep_verdict(alg, maps)
    gens = algebra._np_generators(alg, maps)
    assert density_irreducible(alg, gens) == ref.simple
    norton = algebra._norton_irreducible(alg, gens)
    assert norton is None or norton == ref.simple
    assert simple_under(alg, maps=maps) == ref


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


# primes at which the projective sweep of d dimensions, the oracle of
# Norton's test, stays under 3 300 points
SWEEP_PRIMES = {5: [2, 3, 5, 7], 6: [2, 3], 7: [2, 3], 8: [2, 3]}


def permutation_matrix(perm):
    n = len(perm)
    return tuple(tuple(int(perm[j] == i) for j in range(n)) for i in range(n))


@st.composite
def norton_cases(draw):
    """An algebra of dimension 5 to 8 over F_2, F_3, F_5 or F_7 and maybe
    extra maps, whose exact verdict runs Norton's test first: random unital
    algebras; F_{p^5} and F_{p^6}, where the commutant is all of A (k = d);
    M_2(F_{p^2}) over F_p (k = 2); T_3(F_p), reducible though its commutant
    is F_p; F_p^n with a permutation of its factors; Cayley doubles of
    dimension 8, with or without their involution; the trivial crossed
    product of H by C2."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "extension", "matrix", "triangular",
                                 "swap", "double", "crossed"]))
    d = {"matrix": 8, "triangular": 6, "double": 8, "crossed": 8}.get(
        kind, draw(st.integers(5, 6) if kind == "extension" else
                   st.integers(5, 8)))
    f = prime_field(draw(st.sampled_from(SWEEP_PRIMES[d])))
    if kind == "random":
        return random_unital_algebra(f, d, rng), ()
    if kind == "extension":
        return extension_field(f, d, rng), ()
    if kind == "matrix":
        return tensor_algebra(matrix_algebra(f, 2),
                              quadratic_field_extension(f)), ()
    if kind == "triangular":
        return upper_triangular(f, 3), ()
    if kind == "swap":
        perm = list(range(d))
        rng.shuffle(perm)
        return product_algebra(f, d), (permutation_matrix(perm),)
    if kind == "double":
        alg = draw(st.sampled_from([field_algebra, quadratic_field_extension,
                                    truncated_dual, product_with_swap]))(f)
        while alg.dim < 8:
            alg, _ = cayley_double(alg, rng.randrange(1, f.p))
        return alg, draw(st.sampled_from([(), (alg.involution,)]))
    prod, _ = build_crossed_product(trivial_system(quaternions(f)[0],
                                                   cyclic(2)))
    return prod, ()


@lru_cache(maxsize=None)
def cached_sweep_verdict(alg, maps):
    return sweep_verdict(alg, maps)


@settings(max_examples=60, deadline=None)
@given(norton_cases())
def test_norton_verdicts_match_sweep(case):
    alg, maps = case
    with mock.patch.object(algebra, "_norton_irreducible",
                           wraps=algebra._norton_irreducible) as spy:
        assert simple_under(alg, maps) == cached_sweep_verdict(alg, maps)
    assert spy.call_count == 1


def test_undecided_norton_falls_back_to_the_sweep(monkeypatch):
    # no draw: Norton's test is undecided, at d >= 5 past d points and at
    # d <= 4 past d^2, and the sweep gives the verdict, witness and checked
    # included
    monkeypatch.setattr(algebra, "NORTON_DRAWS", 0)
    cases = [(random_unital_algebra(F2, 5, random.Random(0)), ()),
             (upper_triangular(F3, 3), ()),
             (product_algebra(F3, 5), (permutation_matrix([1, 2, 3, 4, 0]),)),
             (quaternions(F3)[0], ()),
             (random_unital_algebra(F3, 3, random.Random(1)), ()),
             (product_algebra(F3, 3), (permutation_matrix([1, 2, 0]),))]
    for alg, maps in cases:
        gens = algebra._np_generators(alg, maps)
        assert algebra._norton_irreducible(alg, gens) is None
        with mock.patch.object(algebra, "_norton_irreducible",
                               wraps=algebra._norton_irreducible) as spy:
            assert simple_under(alg, maps) == sweep_verdict(alg, maps)
        assert spy.call_count == 1
    assert [simple_under(alg, maps).simple for alg, maps in cases] == \
        [True, False, True, True, False, True]


def test_planted_eigenvalue_proves_reducible():
    # small random algebras whose draw kills the unit with a kernel of
    # dimension k = 1: the dual spin finds them reducible, as the density
    # test and the sweep do
    for p, seed in [(2, 4), (3, 1), (3, 2)]:
        alg = random_unital_algebra(prime_field(p), 3, random.Random(seed))
        gens = algebra._np_generators(alg)
        assert algebra._commutant_field(alg, gens) == 1
        assert algebra._norton_irreducible(alg, gens) is False
        assert not density_irreducible(alg, gens)
        assert not sweep_verdict(alg).simple


def test_planted_eigenvalue_decides_every_irreducible_class(monkeypatch):
    # one class per irreducible presentation that the requests meet: the
    # planted eigenvalue 0 alone proves each irreducible, so Norton's test
    # returns True and no closure of a sweep or a sample runs
    F7 = prime_field(7)
    octo = octonions(F3)[0]
    sed = sedenions(F3)[0]
    twist = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    ident = identity_matrix(F3, 4)
    h = quaternions(F3)[0]
    prod, grad = build_crossed_product(validate_crossed_system(
        h, cyclic(4), (ident, twist, ident, twist),
        tuple(tuple(h.unit for _ in range(4)) for _ in range(4))))
    double_q = field_algebra(Q)
    for mu in (-1, 2, -3):
        double_q, _ = cayley_double(double_q, mu)
    verdicts = [
        lambda: simple_under(h), lambda: simple_under(octo),
        lambda: is_star_simple(octo),
        lambda: simple_under(matrix_algebra(F3, 2)),
        lambda: simple_under(tensor_algebra(matrix_algebra(F7, 2),
                                            quadratic_field_extension(F7))),
        lambda: simple_under(extension_field(F3, 5, random.Random(5))),
        lambda: simple_under(sed, budget=3 ** 16),
        lambda: is_star_simple(sed, budget=3 ** 16),
        lambda: is_graded_simple(prod, grad),
        lambda: sample_simple(random_unital_algebra(Q, 5, random.Random(5)),
                              trials=10),
        lambda: sample_simple(random_unital_algebra(Q, 8, random.Random(8)),
                              trials=10),
        lambda: sample_simple(double_q, trials=10)]
    answers, norton = [], algebra._norton_irreducible

    def recorded(alg, gens):
        answers.append(norton(alg, gens))
        return answers[-1]
    monkeypatch.setattr(algebra, "_norton_irreducible", recorded)
    with mock.patch.object(algebra, "_closure_np",
                           wraps=algebra._closure_np) as closure_np, \
            mock.patch.object(algebra, "_closure_echelon",
                              wraps=algebra._closure_echelon) as closure_q:
        assert all(verdict().simple for verdict in verdicts)
    assert answers == [True] * len(verdicts)
    assert closure_np.call_count == closure_q.call_count == 0


@st.composite
def small_norton_cases(draw):
    """A random unital algebra of dimension 3 to 6 over F_2 or F_3, or a
    random C2-graded one with its component projections as extra maps:
    a few in ten are reducible with a commutant that is a field."""
    f = prime_field(draw(st.sampled_from([2, 3])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return random_unital_algebra(f, draw(st.integers(3, 6)), rng), ()
    a = draw(st.integers(2, 3))
    alg, grad = random_graded_algebra(f, cyclic(2),
                                      [0] * a + [1] * draw(st.integers(1, a)),
                                      rng)
    proj = [tuple(tuple(int(i == j and grad.degrees[i] == g)
                        for j in range(alg.dim)) for i in range(alg.dim))
            for g in (0, 1)]
    return alg, proj


@settings(max_examples=150, deadline=None)
@given(small_norton_cases())
def test_norton_agrees_with_the_density_test(case):
    alg, maps = case
    gens = algebra._np_generators(alg, maps)
    verdict = algebra._norton_irreducible(alg, gens)
    if verdict is not None:
        assert verdict == density_irreducible(alg, gens)


def test_norton_reducible_without_a_witness_is_an_error(monkeypatch):
    monkeypatch.setattr(algebra, "_norton_irreducible", lambda alg, gens: False)
    with pytest.raises(RuntimeError, match="sweep found no proper"):
        simple_under(product_algebra(F3, 5), (permutation_matrix([1, 2, 3, 4, 0]),))


def test_small_dimensions_run_norton_past_d_squared(monkeypatch):
    # d <= 4: past d^2 points Norton's test decides, and the F_19
    # quaternions are simple without a closure of the sweep
    def refuse(*args):
        raise AssertionError("entered")
    h = quaternions(prime_field(19))[0]
    with monkeypatch.context() as mp:
        mp.setattr(algebra, "_closure_np", refuse)
        with mock.patch.object(algebra, "_norton_irreducible",
                               wraps=algebra._norton_irreducible) as spy:
            assert simple_under(h) == SimplicityVerdict(True, None, "exact",
                                                        7240)
            assert is_star_simple(h) == SimplicityVerdict(True, None, "exact",
                                                          7240)
        assert spy.call_count == 2
    # up to d^2 points the sweep runs alone: the 3 of the group algebra of
    # C2 over F_2, the 4 of F_3 x F_3 and the 7 of F_2^3 with a 3-cycle
    monkeypatch.setattr(algebra, "_norton_irreducible", refuse)
    cases = [(group_algebra(F2, cyclic(2))[0], ()), (product_algebra(F3, 2), ()),
             (product_algebra(F2, 3), (permutation_matrix([1, 2, 0]),))]
    for alg, maps in cases:
        assert simple_under(alg, maps) == sweep_verdict(alg, maps)


@st.composite
def mismatch_cases(draw):
    """An algebra over F_2, F_3 or F_5 with a map for `_product_mismatch`:
    a random matrix, an automorphism or an involution of the algebra, or one
    of those with one entry changed."""
    f = prime_field(draw(st.sampled_from([2, 3, 5])))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "automorphism", "involution"]))
    if kind == "random":
        alg = random_unital_algebra(f, draw(st.integers(1, 5)), rng)
        m = [[rng.randrange(f.p) for _ in range(alg.dim)] for _ in range(alg.dim)]
    elif kind == "automorphism":
        alg, maps = draw(verdict_cases())
        if not maps:
            return alg, identity_matrix(f, alg.dim)
        m = [list(row) for row in maps[0]]
    else:
        alg = draw(st.sampled_from([field_algebra, quadratic_field_extension,
                                    truncated_dual, product_with_swap]))(f)
        for _ in range(draw(st.integers(0, 2))):
            alg, _ = cayley_double(alg, rng.randrange(1, f.p))
        m = [list(row) for row in alg.involution]
    if kind != "random" and draw(st.booleans()):
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        m[i][j] = (m[i][j] + rng.randrange(1, f.p)) % f.p
    return alg, tuple(tuple(row) for row in m)


@settings(max_examples=150, deadline=None)
@given(mismatch_cases())
def test_product_mismatch_matches_the_generic_path(case):
    alg, m = case
    for reverse in (False, True):
        assert (algebra._product_mismatch(alg, m, reverse) ==
                product_mismatch_loop(alg, m, reverse))


def test_verdict_signatures():
    params = lambda fn: list(inspect.signature(fn).parameters)
    assert params(simple_under) == ["alg", "maps", "budget"]
    assert params(sample_simple) == ["alg", "maps", "trials", "seed"]
    assert params(is_simple) == ["alg", "budget", "trials", "seed"]


@st.composite
def verdict_cases(draw):
    """An algebra over F_2, F_3 or F_5 with d <= 4, and maybe one extra
    automorphism: a permutation of the factors of F^n, the Frobenius of
    F_{p^2}, an inner automorphism of M_2(F), x -> c x on the dual
    numbers; random unital algebras get none."""
    f = prime_field(draw(st.sampled_from([2, 3, 5])))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["product", "extension", "matrix", "dual",
                                 "random"]))
    if kind == "product":
        n = draw(st.integers(1, 4))
        perm = list(range(n))
        rng.shuffle(perm)
        alg = product_algebra(f, n)
        auto = tuple(tuple(int(perm[j] == i) for j in range(n))
                     for i in range(n))
    elif kind == "extension":
        alg, auto = quadratic_field_extension(f), frobenius_matrix(f)
    elif kind == "matrix":
        alg = matrix_algebra(f, 2)
        u = tuple(rng.randrange(f.p) for _ in range(4))
        while two_sided_inverse(alg, u) is None:
            u = tuple(rng.randrange(f.p) for _ in range(4))
        auto = conjugation_matrix(alg, u)
    elif kind == "dual":
        alg, c = truncated_dual(f), rng.randrange(1, f.p)
        auto = ((1, 0), (0, c))
    else:
        return random_unital_algebra(f, draw(st.integers(1, 4)), rng), ()
    assert is_ring_automorphism(alg, auto)
    return alg, ((auto,) if draw(st.booleans()) else ())


@settings(max_examples=200, deadline=None)
@given(verdict_cases(), st.integers(0, 2 ** 32))
def test_is_simple_and_the_sampler_agree_with_simple_under(case, seed):
    alg, maps = case
    assert is_simple(alg) == simple_under(alg)
    exact = simple_under(alg, maps)
    sampled = sample_simple(alg, maps, trials=20, seed=seed)
    assert sampled.mode == "randomized"
    if not sampled.simple:
        assert 0 < ideal_closure(alg, [sampled.witness], maps).rank < alg.dim
        assert not exact.simple


def test_huge_prime_runs_norton_at_d_2(monkeypatch):
    # p = 2^31 - 1, d = 2: d (p - 1)^2 < 2^63, so Norton's test runs in
    # int64.  It finds F_p x F_p reducible, and the sweep then finds e2
    # first; with the swap, and for F_{p^2}, it proves A simple without a
    # closure of the sweep's 2^31 points
    f = prime_field(2 ** 31 - 1)
    alg = product_algebra(f, 2)
    gens = algebra._np_generators(alg)
    assert algebra._norton_irreducible(alg, gens) is False
    v = is_simple(alg, budget=2 ** 31)
    assert (v.simple, v.witness, v.checked) == (False, (0, 1), 1)

    def refuse(*args):
        raise AssertionError("sweep entered")
    monkeypatch.setattr(algebra, "_closure_np", refuse)
    want = SimplicityVerdict(True, None, "exact", f.p + 1)
    assert simple_under(alg, (swap_matrix(f),), budget=2 ** 31) == want
    assert simple_under(quadratic_field_extension(f), budget=2 ** 31) == want


def test_randomized_mode_deterministic_and_consistent():
    alg = matrix_algebra(F3, 2)
    a = sample_simple(alg, trials=50, seed=4)
    b = sample_simple(alg, trials=50, seed=4)
    assert a == b
    assert a.mode == "randomized"
    assert a.simple  # agrees with the exact answer on a simple algebra
    # a nonsimple algebra can never be reported simple by sampling
    c = sample_simple(product_algebra(F3, 2), trials=100, seed=0)
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
        simple_under(alg)


def test_inverses_match_the_norm():
    # v v* is a scalar for doubled algebras; invertibility is norm != 0
    qa = quaternions(F3)[0]
    seen_zero_divisor = False
    for v in projective_points(3, qa.dim):
        norm = multiply(qa, v, qa.star(v))
        assert norm[1:] == qa.scalar_vec(0)[1:]
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


def test_field_check_refused_past_the_budget(monkeypatch):
    # F_3^4: 40 projective points; refused before the first at budget 39
    monkeypatch.setattr(algebra, "projective_walk",
                        walk_without_points(projective_walk))
    alg = product_algebra(F3, 4)
    center = nucleus_and_center(alg).center
    with pytest.raises(BudgetExceeded,
                       match="40 projective points of a field check exceed budget 39"):
        subfield_check(alg, center, budget=39)
    with pytest.raises(AssertionError, match="visited"):
        subfield_check(alg, center, budget=40)


def test_conjugation_is_automorphism():
    m = matrix_algebra(F3, 2)
    u = m.element((1, 1, 0, 1))  # unipotent, invertible
    g = conjugation_matrix(m, u)
    assert is_ring_automorphism(m, g)
    assert not is_ring_automorphism(m, ((1, 0, 0, 0),) * 4)


def one_sided_nuclei_algebra(f, rng):
    """Basis 1, x, y, z, w, u with two products besides those of the unit;
    x lies in two of the three one-sided nuclei and not in the third."""
    pairs = rng.choice([((2, 3, 4), (4, 1, 5)),    # yz = w, wx = u: (y, z, x) = u
                        ((3, 2, 4), (1, 4, 5)),    # zy = w, xw = u: (x, z, y) = -u
                        ((2, 1, 4), (4, 3, 5))])   # yx = w, wz = u: (y, x, z) = u
    entries = [(0, j, j, 1) for j in range(6)] + [(j, 0, j, 1) for j in range(1, 6)]
    entries += [(i, j, k, 1) for i, j, k in pairs]
    return make_algebra(f, 6, entries, (1, 0, 0, 0, 0, 0))


def crossed_test_product(f, rng):
    """H x| C2 (group ring) or F_{p^2} x| C2 by the Frobenius, both
    associative, so their associator tensors are all zero.  Over Q and past
    F_5 only H: `quadratic_field_extension` lists every square mod p."""
    if not f.is_finite or f.p > 5 or rng.random() < 0.5:
        return build_crossed_product(trivial_system(quaternions(f)[0],
                                                    cyclic(2)))[0]
    ext = quadratic_field_extension(f)
    units = ((ext.unit,) * 2,) * 2
    sys = validate_crossed_system(ext, cyclic(2),
                                  (identity_matrix(f, 2), ext.involution), units)
    return build_crossed_product(sys)[0]


def nucleus_test_algebra(f, kind, rng):
    if kind == "crossed":
        return crossed_test_product(f, rng)
    if kind == "one-sided":
        return one_sided_nuclei_algebra(f, rng)
    if kind == "random":
        return random_unital_algebra(f, rng.randint(1, 4), rng)
    if kind == "product":
        return rng.choice([product_algebra(f, rng.randint(1, 3)),
                           product_with_swap(f)])
    if kind == "octonions":
        return octonions(f)[0]
    alg = rng.choice([field_algebra, truncated_dual, product_with_swap])(f)
    while alg.dim < 4:
        alg, _ = cayley_double(alg, rng.choice([1, -1]))
    return alg


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F2, F3, prime_field(5), prime_field(4294967311), Q]),
       st.sampled_from(["random", "product", "octonions", "double",
                        "one-sided", "crossed"]),
       st.randoms(use_true_random=False))
def test_in_nucleus_matches_the_solved_nucleus(f, kind, rng):
    alg = nucleus_test_algebra(f, kind, rng)
    c = nucleus_and_center(alg)
    nuc = c.nucleus
    inside = [alg.add_vec(u, alg.scale(f.coerce(rng.randint(1, 9)), v))
              for u, v in zip(nuc.basis, nuc.basis[1:])]
    # elements of two one-sided nuclei that may miss the third
    two_sided = [v for a, b in ((c.left, c.middle), (c.left, c.right),
                                (c.middle, c.right))
                 for v in intersect(a, b).basis]
    vecs = [algebra.random_element(alg, rng) for _ in range(4)]
    vecs += list(nuc.basis) + inside + two_sided
    assert algebra.nuclear_mask(alg, vecs) == [nuc.contains(v) for v in vecs]
    assert all(algebra.nuclear_mask(alg, nuc.basis))
    # associative algebras and crossed products take the zero-defect
    # shortcut of both functions, the others their contractions
    assert associator_defect(alg) == associator_defect_loop(alg)


def test_the_zero_defect_shortcut_still_checks_lengths():
    alg = quaternions(F3)[0]
    assert algebra.nuclear_mask(alg, [alg.unit]) == [True]
    with pytest.raises(DimensionMismatch, match="vector length 3 != dim 4"):
        algebra.nuclear_mask(alg, [alg.unit, (1, 0, 0)])


def fixed_center_test_map(alg, rng):
    """The identity, the algebra's involution, a diagonal map fixing a random
    set of coordinates, or a random matrix."""
    f, d = alg.field, alg.dim
    kind = rng.choice(["identity", "involution", "diagonal", "random"])
    if kind == "involution" and alg.involution is not None:
        return alg.involution
    if kind == "random":
        return tuple(tuple(f.coerce(rng.randint(-2, 2)) for _ in range(d))
                     for _ in range(d))
    diag = [1 if kind == "identity" or rng.random() < 0.6 else rng.randint(2, 4)
            for _ in range(d)]
    return tuple(tuple(f.coerce(diag[r]) if r == c else f.zero for c in range(d))
                 for r in range(d))


def commutative_test_algebra(f, rng):
    """Basis 1, x, y with random symmetric products of x and y: every
    element commutes with every other, so only the nucleus equations cut
    the center down."""
    entries = [(0, j, j, 1) for j in range(3)] + [(j, 0, j, 1) for j in (1, 2)]
    for i, j in ((1, 1), (1, 2), (2, 2)):
        for k in range(3):
            c = rng.randint(-2, 2)
            entries += [(i, j, k, c), (j, i, k, c)] if i != j else [(i, j, k, c)]
    return make_algebra(f, 3, entries, (1, 0, 0))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, prime_field(5), prime_field(4294967311), Q]),
       st.sampled_from(["random", "product", "octonions", "double",
                        "one-sided", "commutative"]),
       st.randoms(use_true_random=False))
def test_fixed_center_is_the_fixed_part_of_the_center(f, kind, rng):
    alg = (commutative_test_algebra(f, rng) if kind == "commutative"
           else nucleus_test_algebra(f, kind, rng))
    maps = [fixed_center_test_map(alg, rng) for _ in range(rng.randint(0, 2))]
    expected = intersect(nucleus_and_center(alg).center,
                         fixed_subspace(alg, maps))
    assert fixed_center(alg, maps) == expected


def test_a_unit_line_commuter_needs_no_associator_tensor():
    alg = octonions(F3)[0]
    assert fixed_center(alg, ()).rank == 1
    assert "_np_defect" not in alg.__dict__


def commutant_test_algebra(f, kind, rng):
    """An algebra and maybe a gradation: commutants of every kind, k = 1
    (octonions, M_2, most random algebras), 1 < k < d (M_2(F_{p^2}), k = 2),
    k = d (extension fields) and none that is a field (products, dual
    numbers)."""
    if kind == "octonions":
        return octonions(f)
    if kind == "group":
        return group_algebra(f, cyclic(rng.randint(2, 4)))
    alg = {"random": lambda: random_unital_algebra(f, rng.randint(1, 5), rng),
           "commutative": lambda: commutative_test_algebra(f, rng),
           "product": lambda: rng.choice([product_algebra(f, rng.randint(1, 3)),
                                          product_with_swap(f)]),
           "matrix": lambda: matrix_algebra(f, 2),
           "extension": lambda: extension_field(f, rng.randint(2, 4), rng),
           "extension matrix": lambda: tensor_algebra(
               extension_field(f, 2, rng), matrix_algebra(f, 2)),
           "dual": lambda: truncated_dual(f)}[kind]()
    return alg, None


def projections(alg, degrees):
    """The projections onto the coordinate blocks of equal degree."""
    proj = np.zeros((max(degrees) + 1, alg.dim, alg.dim), dtype=np.int64)
    i = np.arange(alg.dim)
    proj[list(degrees), i, i] = 1
    return proj[proj.any(axis=(1, 2))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F2, F3, prime_field(5), prime_field(7)]),
       st.sampled_from(["random", "commutative", "octonions", "product",
                        "matrix", "extension", "extension matrix", "dual",
                        "group"]),
       st.sampled_from(["none", "maps", "projections"]),
       st.randoms(use_true_random=False))
def test_commutant_from_the_center_matches_the_full_solve(f, kind, extra, rng):
    alg, grad = commutant_test_algebra(f, kind, rng)
    maps = ()
    if extra == "maps":
        maps = [fixed_center_test_map(alg, rng) for _ in range(rng.randint(1, 2))]
    elif extra == "projections":
        degrees = (grad.degrees if grad is not None
                   else [rng.randrange(3) for _ in range(alg.dim)])
        maps = projections(alg, degrees)
    gens = algebra._np_generators(alg, maps)
    assert algebra._commutant_field(alg, gens) == commutant_field_loop(alg, gens)


def test_commutant_cases_reach_every_kind_of_answer():
    rng = random.Random(2)
    ext = extension_field(F3, 3, rng)
    cases = [(octonions(F3)[0], 1), (matrix_algebra(prime_field(5), 2), 1),
             (tensor_algebra(extension_field(F3, 2, rng),
                             matrix_algebra(F3, 2)), 2),
             (ext, 3), (product_algebra(F2, 2), None),
             (truncated_dual(prime_field(7)), None)]
    for alg, k in cases:
        gens = algebra._np_generators(alg)
        assert algebra._commutant_field(alg, gens) == k
        assert commutant_field_loop(alg, gens) == k
    # the Frobenius of F_27 commutes only with the prime field
    frob = tuple(zip(*(algebra.multiply(ext, v, algebra.multiply(ext, v, v))
                       for v in map(ext.basis_vector, range(3)))))
    gens = algebra._np_generators(ext, [frob])
    assert algebra._commutant_field(ext, gens) == 1 == \
        commutant_field_loop(ext, gens)


def test_involution_errors_keep_their_order_and_first_pair():
    qa, _ = quaternions(F3)

    def with_involution(alg, m):
        return make_algebra(alg.field, alg.dim, entries(alg), alg.unit, involution=m)

    with pytest.raises(ValidationError, match="does not fix the unit"):
        with_involution(qa, [[-1 if r == c else 0 for c in range(4)]
                             for r in range(4)])
    with pytest.raises(ValidationError, match="does not square to the identity"):
        with_involution(truncated_dual(prime_field(5)), ((1, 0), (0, 2)))
    # the identity reverses e_i e_j exactly when e_i and e_j commute
    with pytest.raises(ValidationError, match=r"reverse products at \(1, 2\)$"):
        with_involution(qa, identity_matrix(F3, 4))
    assert with_involution(qa, qa.involution).involution == qa.involution


def test_associativity_flags():
    assert is_associative(matrix_algebra(F2, 2))
    assert not is_associative(octonions(F3)[0])


# -- over Q: the reduction mod P against the solve over Q -----------------------

P = algebra.REDUCTION_FIELD.p


def q_answers(alg):
    """The answers over Q that the reduction mod P can settle."""
    maps = (alg.involution,) if alg.involution is not None else ()
    return (nucleus_and_center(alg), is_associative(alg),
            sample_simple(alg, trials=100, seed=0),
            sample_simple(alg, maps, trials=100, seed=1))


def reference_answers(alg):
    """The same answers, every one solved over Q."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Algebra, "_reduced", None)
        return q_answers(replace(alg))


def quadratic_q(c):
    """Q[x]/(x^2 - c)."""
    return make_algebra(Q, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                               (1, 1, 0, c)], (1, 0))


def skew_q(c):
    """Basis 1, x, y with x y = c x and every other product of x, y zero:
    not associative and not commutative over Q when c != 0."""
    return make_algebra(Q, 3, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                               (0, 2, 2, 1), (2, 0, 2, 1), (1, 2, 1, c)],
                        (1, 0, 0))


Q_CASES = [
    lambda rng: random_unital_algebra(Q, rng.randint(1, 5), rng),
    lambda rng: product_algebra(Q, rng.randint(1, 3)),
    lambda rng: truncated_dual(Q),
    lambda rng: product_with_swap(Q),
    lambda rng: matrix_algebra(Q, 2),
    lambda rng: quadratic_q(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))),
    lambda rng: quadratic_q(Fraction(1, P)),
    lambda rng: quadratic_q(P),
    lambda rng: skew_q(P),
    lambda rng: skew_q(Fraction(rng.randint(1, 9), rng.randint(1, 5))),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(Q_CASES), st.integers(0, 2 ** 32))
def test_reduction_matches_fraction_path(case, seed):
    alg = case(random.Random(seed))
    assert q_answers(alg) == reference_answers(alg)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([field_algebra, truncated_dual, product_with_swap]),
       st.lists(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 5)]),
                min_size=1, max_size=2))
def test_reduction_matches_fraction_path_cayley_doubles(base, mus):
    alg = base(Q)
    for mu in mus:
        if alg.dim * 2 > 4:
            break
        alg, _ = cayley_double(alg, mu)
    assert q_answers(alg) == reference_answers(alg)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(Q_CASES), st.integers(0, 2 ** 32))
def test_is_simple_over_q_is_the_sampler(case, seed):
    alg = case(random.Random(seed))
    assert (is_simple(alg, trials=30, seed=seed)
            == sample_simple(alg, trials=30, seed=seed))
    with pytest.raises(ExactModeUnavailable):
        simple_under(alg)


def test_q_witnesses_unchanged():
    v = sample_simple(product_algebra(Q, 2), trials=100, seed=0)
    assert v == SimplicityVerdict(False, (-8, 0), "randomized", 13)
    v = is_simple(truncated_dual(Q))
    assert v == SimplicityVerdict(False, (0, 6), "randomized", 32)


def test_denominator_divisible_by_p_has_no_reduction():
    alg = quadratic_q(Fraction(1, P))
    assert alg._reduced is None
    assert is_simple(alg, trials=10) == SimplicityVerdict(True, None,
                                                          "randomized", 10)
    assert nucleus_and_center(alg).center.rank == 2
    assert product_algebra(F3, 2)._reduced is None


def test_degenerate_reduction_falls_back(monkeypatch):
    # x^2 = P is a field over Q but the dual numbers mod P
    field_q = quadratic_q(P)
    red = field_q._reduced
    assert red is not None and entries(red) == entries(truncated_dual(red.field))
    assert algebra._norton_irreducible(red, algebra._np_generators(red)) is False
    assert is_simple(field_q, trials=10) == SimplicityVerdict(
        True, None, "randomized", 10)
    # x y = P x: associative and commutative mod P, neither over Q
    skew = skew_q(P)
    assert not skew._reduced._np_defect.any()
    assert not is_associative(skew)
    ranks = lambda c: [c.left.rank, c.middle.rank, c.right.rank,
                       c.nucleus.rank, c.commuter.rank, c.center.rank]
    assert ranks(nucleus_and_center(skew._reduced)) == [3] * 6
    assert ranks(nucleus_and_center(skew)) == [2, 2, 2, 1, 1, 1]
    assert not is_simple(skew).simple


def test_simple_q_algebra_is_proved_without_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")
    monkeypatch.setattr(algebra, "_closure_echelon", refuse)
    octo = field_algebra(Q)
    for mu in (-1, -1, -1):
        octo, _ = cayley_double(octo, mu)
    # Norton's test proves each reduction irreducible, at d = 4 as at
    # d >= 5
    want = SimplicityVerdict(True, None, "randomized", 25)
    for alg in (matrix_algebra(Q, 2),
                random_unital_algebra(Q, 5, random.Random(1)), octo):
        assert is_simple(alg, trials=25) == want
    # all six subspaces of the octonions have rank 1 mod P: no solve over Q
    blocks = algebra._nucleus_blocks
    monkeypatch.setattr(algebra, "_nucleus_blocks", lambda alg: (
        blocks(alg) if alg.field.is_finite else refuse()))
    monkeypatch.setattr(algebra, "associator_defect", refuse)
    unit_line = Subspace.span(Q, 8, [octo.unit])
    assert nucleus_and_center(octo) == algebra.CentralSubspaces(*[unit_line] * 6)
    assert not is_associative(octo)


def test_undecided_reduction_falls_back_to_sampling(monkeypatch):
    # Norton's test proves four reductions irreducible; on T_3(F_P) the
    # kernel of every draw at the planted eigenvalue 0 is too large, and T_3
    # is undecided, which proves no more than reducible does; with no draw
    # at all every reduction is undecided, and sampling gives the same
    # verdicts
    algs = [random_unital_algebra(Q, d, random.Random(d)) for d in (5, 6, 8)]
    algs += [upper_triangular(Q, 3),
             tensor_algebra(matrix_algebra(Q, 2), quadratic_q(3))]
    reds = [alg._reduced for alg in algs]
    gens = [algebra._np_generators(red) for red in reds]
    assert [algebra._reduction_irreducible(alg, ()) for alg in algs] == \
        [True, True, True, False, True]
    want = [sample_simple(alg, trials=10) for alg in algs]
    assert [v.simple for v in want] == [True, True, True, False, True]
    assert [algebra._norton_irreducible(red, g)
            for red, g in zip(reds, gens)] == [True, True, True, None, True]
    monkeypatch.setattr(algebra, "NORTON_DRAWS", 0)
    assert all(algebra._norton_irreducible(red, g) is None
               for red, g in zip(reds, gens))
    with mock.patch.object(algebra, "_closure_echelon",
                           wraps=algebra._closure_echelon) as spy:
        assert [sample_simple(alg, trials=10) for alg in algs] == want
    assert spy.call_count == 3 * 10 + want[3].checked + 10


@st.composite
def q_reduction_cases(draw):
    """An algebra over Q of dimension 5 to 8 and maybe its involution, for
    its reduction mod P: random unital algebras; T_3(Q), reducible though
    its center is Q; M_2(Q) (x) Q[x]/(x^2 - c), whose reduction has
    commutant F_{P^2} or F_P x F_P as c is a non-square mod P or not; and
    Cayley doubles of dimension 8, at small nonzero mu."""
    kind = draw(st.sampled_from(["random", "triangular", "matrix", "double"]))
    if kind == "random":
        return random_unital_algebra(Q, draw(st.integers(5, 8)),
                                     draw(st.randoms(use_true_random=False))), ()
    if kind == "triangular":
        return upper_triangular(Q, 3), ()
    if kind == "matrix":
        c = draw(st.integers(-6, 6).filter(lambda c: c not in (0, 1, 4)))
        return tensor_algebra(matrix_algebra(Q, 2), quadratic_q(c)), ()
    alg = field_algebra(Q)
    small = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.integers(1, 6))
    for mu in draw(st.lists(small, min_size=3, max_size=3)):
        alg, _ = cayley_double(alg, mu)
    return alg, draw(st.sampled_from([(), (alg.involution,)]))


@settings(max_examples=40, deadline=None)
@given(q_reduction_cases())
def test_reduction_norton_agrees_with_the_density_test(case):
    alg, maps = case
    red = alg._reduced
    gens = algebra._np_generators(
        red, [linalg.coerce_matrix(red.field, m, red.dim) for m in maps])
    verdict = algebra._norton_irreducible(red, gens)
    if verdict is not None:
        assert verdict == density_irreducible(red, gens)


# -- over Q: the contractions on cleared denominators against the loops ----------

@st.composite
def q_algebras(draw):
    """An algebra over Q of dimension at most 6, rescaled by nonzero
    rationals: a random unital one, the skew x y = c x, F x F, M_2(Q), one
    or two Cayley doubles of Q with their involutions, the commutative
    `commutative_not_associative` (a slot of rank 1 under a commuter of
    rank 3) or `one_sided_nuclei_algebra` (a nucleus of rank 3 inside
    one-sided nuclei of rank 5)."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "skew", "product", "matrix",
                                 "double", "commutative", "one-sided"]))
    if kind == "random":
        alg = random_unital_algebra(Q, draw(st.integers(1, 4)), rng)
    elif kind == "skew":
        alg = skew_q(draw(NONZERO_Q))
    elif kind == "product":
        alg = product_algebra(Q, 2)
    elif kind == "matrix":
        alg = matrix_algebra(Q, 2)
    elif kind == "commutative":
        alg = commutative_not_associative(Q)
    elif kind == "one-sided":
        alg = one_sided_nuclei_algebra(Q, rng)
    else:
        alg = field_algebra(Q)
        for _ in range(draw(st.integers(1, 2))):
            alg, _ = cayley_double(alg, draw(NONZERO_Q))
    scales = [draw(NONZERO_Q) for _ in range(alg.dim)]
    return rescaled(alg, scales)


def q_vector(draw, dim):
    return tuple(draw(st.just(Fraction(0)) | NONZERO_Q) for _ in range(dim))


@settings(max_examples=60, deadline=None)
@given(q_algebras())
def test_q_central_subspaces_match_the_loops(alg):
    left, middle, right, comm = nucleus_blocks_loop(alg)
    expected = algebra.CentralSubspaces(
        *(echelon_kernel(Q, rows, alg.dim) for rows in (
            left, middle, right, left + middle + right, comm,
            left + middle + right + comm)))
    names = algebra.CENTRAL_NAMES
    assert algebra._central(alg, names) == central_stacked(alg, names)
    assert algebra.CentralSubspaces(**algebra._central(alg, names)) == expected
    assert nucleus_and_center(alg) == expected


@settings(max_examples=60, deadline=None)
@given(q_algebras(), st.data())
def test_q_nuclear_mask_defect_and_center_rows_match_the_loops(alg, data):
    d = alg.dim
    nucleus = nucleus_and_center(alg).nucleus
    vecs = [alg.scale(data.draw(NONZERO_Q), row) for row in nucleus.basis]
    vecs += [q_vector(data.draw, d) for _ in range(2)]
    assert algebra.nuclear_mask(alg, vecs) == nuclear_mask_loop(alg, vecs)
    assert associator_defect(alg) == associator_defect_loop(alg)
    # twisted centers: no twist, a random one and a conjugation, without
    # maps and with the involution or the conjugation as the map
    twists = [None, tuple(tuple(data.draw(NONZERO_Q) for _ in range(d))
                          for _ in range(d))]
    maps = [alg.involution] if alg.involution is not None else []
    u = q_vector(data.draw, d)
    if two_sided_inverse(alg, u) is not None:
        twists.append(conjugation_matrix(alg, u))
        maps.append(twists[-1])
    for tw in twists:
        for m in ((), maps):
            assert fixed_center(alg, m, tw) == fixed_center_loop(alg, m, tw)


@settings(max_examples=80, deadline=None)
@given(q_algebras(), st.data())
def test_q_product_mismatch_matches_the_loop(alg, data):
    """On automorphisms and anti-automorphisms with fractional entries (inner
    ones, and the involution composed with them), on random matrices, and
    on each of those with one entry moved."""
    d = alg.dim
    maps = [tuple(tuple(data.draw(NONZERO_Q) for _ in range(d))
                  for _ in range(d))]
    u = q_vector(data.draw, d)
    if two_sided_inverse(alg, u) is not None:
        inner = conjugation_matrix(alg, u)
        maps.append(inner)
        if alg.involution is not None:
            maps.append(mat_mul(Q, inner, alg.involution))
    if alg.involution is not None:
        maps.append(alg.involution)
    for m in list(maps):
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        nudged = [list(row) for row in m]
        nudged[i][j] += data.draw(NONZERO_Q)
        maps.append(tuple(map(tuple, nudged)))
    for m in maps:
        for reverse in (False, True):
            assert (algebra._product_mismatch(alg, m, reverse) ==
                    product_mismatch_loop(alg, m, reverse))


@st.composite
def algebras_and_vectors(draw):
    """An algebra over F_2, F_3, F_5 (random unital, M_2, the quaternions)
    or over Q (`q_algebras`), and a vector of it, zero or not."""
    p = draw(st.sampled_from([2, 3, 5, None]))
    if p is None:
        alg = draw(q_algebras())
        return alg, q_vector(draw, alg.dim)
    f = prime_field(p)
    rng = draw(st.randoms(use_true_random=False))
    alg = draw(st.sampled_from([
        lambda: random_unital_algebra(f, rng.randint(1, 5), rng),
        lambda: matrix_algebra(f, 2), lambda: quaternions(f)[0]]))()
    return alg, tuple(draw(st.integers(0, p - 1)) for _ in range(alg.dim))


@settings(max_examples=80, deadline=None)
@given(algebras_and_vectors())
def test_inverse_rows_and_product_table_match_the_loops(case):
    """The rows of `inverse_system` are the loops' over F_p and one nonzero
    multiple of them over Q, so both solve to the same inverse; the product
    table read off the tensor is the summed one."""
    alg, r = case
    f = alg.field
    rows, rhs = algebra.inverse_system(alg, r)
    want_rows, want_rhs = inverse_system_loop(alg, r)
    if f.is_finite:
        assert (rows, rhs) == ([list(row) for row in want_rows], want_rhs)
    else:
        k = next(k for k, c in enumerate(want_rhs) if c)
        scale = Fraction(rhs[k]) / want_rhs[k]
        assert [[scale * c for c in row] for row in want_rows] == rows
        assert [scale * c for c in want_rhs] == rhs
    assert (two_sided_inverse(alg, r) ==
            linalg.solve_affine(f, want_rows, want_rhs)[0])
    assert product_table(alg) == product_table_loop(alg)


@settings(max_examples=60, deadline=None)
@given(algebras_and_vectors(), st.data())
def test_q_and_fp_closures_match_the_loop(case, data):
    """The ideal closure under the L, R and one extra map: over Q the
    Echelon path batches its images from `_np_generators`."""
    alg, v = case
    f, d = alg.field, alg.dim
    entry = (st.integers(0, f.p - 1) if f.is_finite
             else st.just(Fraction(0)) | NONZERO_Q)
    maps = [tuple(tuple(data.draw(entry) for _ in range(d)) for _ in range(d))]
    for extra in ((), maps):
        assert ideal_closure(alg, [v], extra) == closure_loop(alg, [v], extra)


@settings(max_examples=80, deadline=None)
@given(algebras_and_vectors(), st.integers(0, 4))
def test_a_wrong_unit_is_refused_at_the_first_basis(case, shift):
    """`make_algebra` refuses a unit that fails at some e_j with the first
    such j, as the products u e_j and e_j u one basis vector at a time
    find it, over F_p and over Q."""
    alg, v = case
    f = alg.field
    unit = alg.unit if not any(v) else alg.add_vec(alg.unit, alg.scale(
        f.coerce(shift + 1), v))
    first = unit_failure_loop(Algebra(f, alg.dim, alg._np_tensor,
                                      alg._np_scale, unit))
    if first is None:
        assert make_algebra(f, alg.dim, entries(alg), unit).unit == unit
    else:
        with pytest.raises(ValidationError) as err:
            make_algebra(f, alg.dim, entries(alg), unit)
        assert str(err.value) == f"unit is not a two-sided identity at basis {first}"


def test_a_wrong_unit_names_the_first_failing_basis():
    # F_3 x F_3 x F_3 with unit (1, 1, 0): e_0 and e_1 pass, e_2 fails
    alg = product_algebra(F3, 3)
    for field, unit in ((F3, (1, 1, 0)), (Q, (Fraction(1), Fraction(1), Fraction(0)))):
        mult = [(i, i, i, field.one) for i in range(3)]
        with pytest.raises(ValidationError, match="two-sided identity at basis 2$"):
            make_algebra(field, 3, mult, unit)
    with pytest.raises(ValidationError, match="two-sided identity at basis 0$"):
        make_algebra(F3, 3, entries(alg), (2, 1, 1))


@settings(max_examples=60, deadline=None)
@given(q_algebras())
def test_reduction_is_the_algebra_made_mod_P(alg):
    """Or None exactly where `make_algebra` cannot reduce a denominator."""
    red = alg._reduced
    if red is None:
        with pytest.raises(ZeroDivisionError):
            make_algebra(algebra.REDUCTION_FIELD, alg.dim, entries(alg), alg.unit)
    else:
        assert red == make_algebra(algebra.REDUCTION_FIELD, alg.dim, entries(alg),
                                   alg.unit)
        assert red._np_tensor.dtype == np.int64


def test_reduction_refuses_a_denominator_of_P_and_drops_a_constant_P():
    P = algebra.REDUCTION_FIELD.p
    # a constant with denominator P: e_1 e_1 = e_1 / P on the basis e_0, e_1 / P
    assert rescaled(product_algebra(Q, 2), [1, Fraction(1, P)])._reduced is None
    # a unit entry with denominator P: the basis e_0, P e_1, unit e_0 + e_1 / P
    assert rescaled(product_algebra(Q, 2), [1, P])._reduced is None
    # Q[x] / (x^2 - P): the constant P of x x vanishes mod P
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, P)]
    red = make_algebra(Q, 2, mult, (1, 0))._reduced
    assert entries(red) == ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1))
    assert red == make_algebra(algebra.REDUCTION_FIELD, 2, mult, (1, 0))


def test_randomized_mode_over_fp_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Norton's test entered")
    monkeypatch.setattr(algebra, "_norton_irreducible", refuse)
    v = sample_simple(matrix_algebra(F3, 2), trials=30)
    assert v == SimplicityVerdict(True, None, "randomized", 30)


def test_associator_tensor_built_once(monkeypatch):
    # the Q quaternions are associative: the reduction settles neither the
    # full nuclei nor the zero defect, so both come from the associator
    # tensor over Q, built once, as is the reduction's
    alg, _ = cayley_double(cayley_double(field_algebra(Q), -1)[0], -1)
    calls = []
    defect = Algebra._np_defect.func
    spy = cached_property(lambda self: calls.append(self.field) or defect(self))
    spy.__set_name__(Algebra, "_np_defect")
    monkeypatch.setattr(Algebra, "_np_defect", spy)
    assert nucleus_and_center(alg).nucleus.is_full
    assert is_associative(alg)
    assert calls == [algebra.REDUCTION_FIELD, Q]


@settings(max_examples=40, deadline=None)
@given(p=PRIMES, dim=st.integers(1, 5), seed=st.integers(0, 10 ** 6))
def test_object_dtype_matches_int64(p, dim, seed):
    """The object-dtype path (primes past the int64 bound) computes what the
    int64 path computes, here forced onto small primes."""
    f = prime_field(p)

    def run():
        rng = random.Random(seed)
        alg = random_unital_algebra(f, dim, rng)
        mat = [[rng.randrange(p) for _ in range(dim + 1)] for _ in range(dim + 2)]
        red, piv = np_rref(mat, p)
        gen = tuple(rng.randrange(p) for _ in range(dim))
        sys = trivial_system(alg, cyclic(2))
        square = [row[:dim] for row in mat[:dim]]
        return (alg._np_tensor.dtype, red.tolist(), piv, kernel(f, mat, dim + 1),
                nucleus_and_center(alg), ideal_closure(alg, [gen]),
                algebra._product_mismatch(alg, square),
                entries(build_crossed_product(sys)[0]), crossed_center(sys))

    fast = run()
    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, algebra):
            mp.setattr(module, "np_dtype", lambda p, width: object)
        slow = run()
    assert (fast[0], slow[0]) == (np.int64, object)
    assert fast[1:] == slow[1:]
