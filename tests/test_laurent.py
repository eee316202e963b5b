import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import jsonio, laurent
from gradix.algebra import first_unit, nucleus_and_center, two_sided_inverse
from gradix.catalog import (field_algebra, frobenius_matrix,
                            matrix_algebra, product_algebra,
                            quadratic_field_extension, swap_matrix,
                            truncated_dual)
from gradix.errors import (BudgetExceeded, ExactModeUnavailable,
                           UnboundedSearch, ValidationError)
from gradix.fields import prime_field, rationals
from gradix.laurent import (center_coefficient_space, check_window,
                            inner_witness_search, is_sigma_simple,
                            laurent_add, laurent_associator,
                            laurent_center_structure, laurent_commutator,
                            LaurentElement, laurent_element,
                            laurent_multiply, laurent_one,
                            laurent_simplicity_verdict, laurent_sub,
                            make_laurent_ring, sigma_power, verify_central,
                            x_power)
from gradix.linalg import identity_matrix, mat_vec, projective_points
from helpers import conjugation_matrix, extension_field, fixed_subspace

ZERO = LaurentElement(())
F2 = prime_field(2)
F3 = prime_field(3)
Q = rationals()


def frobenius_ring():
    f4 = quadratic_field_extension(F2)
    return make_laurent_ring(f4, [f4.involution])


def swap_ring():
    return make_laurent_ring(product_algebra(F3, 2), [swap_matrix(F3)])


def test_make_ring_validates():
    f4 = quadratic_field_extension(F2)
    with pytest.raises(ValidationError):
        make_laurent_ring(f4, [((1, 1), (1, 1))])  # not invertible
    t = product_algebra(F3, 2)
    with pytest.raises(ValidationError):
        # invertible and unital but not multiplicative
        make_laurent_ring(t, [((1, 0), (2, 1))])
    ring = frobenius_ring()
    assert ring.orders == (2,)


def test_noncommuting_sigmas_rejected():
    m2 = matrix_algebra(F2, 2)
    p = conjugation_matrix(m2, m2.element((1, 1, 0, 1)))
    q = conjugation_matrix(m2, m2.element((0, 1, 1, 0)))
    with pytest.raises(ValidationError):
        make_laurent_ring(m2, [p, q])


def test_twisted_multiplication():
    ring = frobenius_ring()
    f4 = ring.algebra
    a = f4.element((0, 1))  # generator with a^2 = a + 1
    frob_a = mat_vec(F2, f4.involution, a)
    # x a = sigma(a) x
    lhs = laurent_multiply(ring, x_power(ring, (1,)),
                           laurent_element(ring, [((0,), a)]))
    rhs = laurent_element(ring, [((1,), frob_a)])
    assert lhs == rhs
    # x^-1 x = 1
    assert laurent_multiply(ring, x_power(ring, (-1,)),
                            x_power(ring, (1,))) == laurent_one(ring)


def test_element_normalization():
    ring = frobenius_ring()
    f4 = ring.algebra
    a = laurent_element(ring, [((0,), f4.unit), ((0,), f4.unit)])
    assert a == ZERO  # doubled term cancels over F2
    b = laurent_element(ring, [((2,), f4.element((0, 1))),
                               ((1,), f4.unit),
                               ((2,), f4.element((0, 1)))])
    assert b.support() == ((1,),)


def test_ring_laws_on_random_elements():
    import random
    rng = random.Random(0)
    ring = swap_ring()
    t = ring.algebra

    def rand_el():
        return laurent_element(
            ring, [((rng.randint(-2, 2),),
                    tuple(rng.randrange(3) for _ in range(t.dim)))
                   for _ in range(3)])

    for _ in range(25):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert laurent_multiply(ring, a, laurent_add(ring, b, c)) == \
            laurent_add(ring, laurent_multiply(ring, a, b),
                        laurent_multiply(ring, a, c))
        # associative coefficients keep the Laurent ring associative
        assert laurent_associator(ring, a, b, c) == ZERO


def test_sigma_power_negative_exponents():
    ring = frobenius_ring()
    assert sigma_power(ring, (-1,)) == ring.sigma[0]
    assert sigma_power(ring, (2,)) == identity_matrix(F2, 2)


def test_frobenius_verdict():
    ring = frobenius_ring()
    v = laurent_simplicity_verdict(ring)
    assert v.sigma_simple
    assert not v.simple
    assert v.witness == ((1, 0), (2,))
    assert v.central_witness is not None
    assert v.central_witness.support() == ((0,), (2,))
    assert verify_central(ring, v.central_witness)


def test_swap_verdict():
    ring = swap_ring()
    v = laurent_simplicity_verdict(ring)
    assert v.sigma_simple and not v.simple
    assert v.witness[1] == (2,)
    assert verify_central(ring, v.central_witness)


def test_sigma_simplicity_failure_detected():
    ring = make_laurent_ring(truncated_dual(F3), [identity_matrix(F3, 2)])
    v = laurent_simplicity_verdict(ring)
    assert not v.sigma_simple
    assert v.sigma_witness is not None
    assert not v.simple


def test_matrix_ring_inner_witness():
    m2 = matrix_algebra(F2, 2)
    p_el = m2.element((1, 1, 0, 1))
    ring = make_laurent_ring(m2, [conjugation_matrix(m2, p_el)])
    assert ring.orders == (2,)
    u, m = inner_witness_search(ring)
    assert m == (1,)
    # the conjugating unit is the projective representative of p itself
    assert u == p_el
    cs = laurent_center_structure(ring, [(-2, 2)])
    assert cs.l_points == ((0,), (1,))


def test_never_simple_over_finite_coefficients():
    rings = [frobenius_ring(), swap_ring(),
             make_laurent_ring(field_algebra(F3), [identity_matrix(F3, 1)]),
             make_laurent_ring(quadratic_field_extension(F2),
                               [identity_matrix(F2, 2)])]
    for ring in rings:
        assert not laurent_simplicity_verdict(ring).simple


def test_rank_two_witness_lex_order():
    f4 = quadratic_field_extension(F2)
    ring = make_laurent_ring(f4, [f4.involution, identity_matrix(F2, 2)])
    assert ring.orders == (2, 1)
    u, m = inner_witness_search(ring)
    assert m == (0, 1)  # first inner exponent in lexicographic order
    assert u == (1, 0)


def test_wrong_witness_fails_verification():
    ring = frobenius_ring()
    wrong = laurent_add(ring, laurent_one(ring), x_power(ring, (1,)))
    assert not verify_central(ring, wrong)


def test_center_slice_matches_crossed_description():
    # center = F-span of u_l x^l over l in L with trivial conjugator: for the
    # Frobenius ring that is the fixed field at every even exponent
    ring = frobenius_ring()
    cs = laurent_center_structure(ring, [(-4, 4)])
    assert cs.l_points == ((0,),)
    assert cs.conjugators == (((1, 0)),) or cs.conjugators == (((1, 0),),)
    assert cs.fixed_center.rank == 1
    assert cs.slice_exponents == ((-4,), (-2,), (0,), (2,), (4,))
    for basis in cs.slice_bases:
        assert len(basis) == cs.fixed_center.rank
    # odd exponents carry nothing
    assert center_coefficient_space(ring, (1,)).is_zero
    # and the even slices are exactly the fixed center twisted by x^m
    assert center_coefficient_space(ring, (2,)).basis == \
        cs.fixed_center.basis


def test_central_elements_multiply_centrally():
    ring = frobenius_ring()
    v = laurent_simplicity_verdict(ring)
    c = v.central_witness
    for coeffs in itertools.product(range(2), repeat=2):
        a = laurent_element(ring, [((1,), coeffs)])
        assert laurent_commutator(ring, c, a) == ZERO
        sq = laurent_multiply(ring, c, c)
        assert verify_central(ring, sq)


def test_unbounded_and_unavailable_errors():
    dual_q = truncated_dual(Q)
    scale = ((1, 0), (0, 2))  # infinite order over Q
    ring = make_laurent_ring(dual_q, [scale])
    assert ring.orders == (None,)
    with pytest.raises(UnboundedSearch):
        inner_witness_search(ring)
    with pytest.raises(ExactModeUnavailable):
        is_sigma_simple(ring)
    field_q = field_algebra(Q)
    ring2 = make_laurent_ring(field_q, [identity_matrix(Q, 1)])
    assert ring2.orders == (1,)
    with pytest.raises(UnboundedSearch):
        inner_witness_search(ring2)


def test_budget_guard():
    ring = frobenius_ring()
    with pytest.raises(BudgetExceeded):
        is_sigma_simple(ring, budget=1)


def conjugating_unit(ring, m):
    """The first unit of the coefficient space at m, solved afresh, after
    checking the inverse that comes with it."""
    alg = ring.algebra
    unit = first_unit(alg, center_coefficient_space(ring, m))
    if unit is None:
        return None
    u, inv = unit
    assert alg.multiply(u, inv) == alg.unit == alg.multiply(inv, u)
    return u


def brute_conjugating_unit(ring, m):
    """Every projective point of T in lex order, filtered by each condition
    on a conjugating unit: the reference for `conjugating_unit`."""
    alg, f = ring.algebra, ring.algebra.field
    nuc = nucleus_and_center(alg).nucleus
    twist = sigma_power(ring, m)
    for u in projective_points(f.p, alg.dim):
        if (all(mat_vec(f, s, u) == u for s in ring.sigma)
                and nuc.contains(u)
                and two_sided_inverse(alg, u) is not None
                and all(alg.multiply(alg.basis_vector(b), u)
                        == alg.multiply(u, mat_vec(f, twist, alg.basis_vector(b)))
                        for b in range(alg.dim))):
            return u
    return None


@st.composite
def small_rings(draw):
    """Product algebras with permutation twists, quadratic extensions with
    Frobenius, dual numbers with diagonal twists; d <= 4, p in {2, 3, 5}."""
    f = prime_field(draw(st.sampled_from([2, 3, 5])))
    shape = draw(st.sampled_from(["product", "extension", "dual"]))
    rank = draw(st.integers(1, 2))
    if shape == "product":
        k = draw(st.integers(2, 4))
        perm = draw(st.permutations(range(k)))
        first = tuple(tuple(int(perm[j] == i) for j in range(k))
                      for i in range(k))
        second = draw(st.sampled_from([first, identity_matrix(f, k)]))
        return make_laurent_ring(product_algebra(f, k), [first, second][:rank])
    if shape == "extension":
        frob = frobenius_matrix(f)
        second = draw(st.sampled_from([frob, identity_matrix(f, 2)]))
        return make_laurent_ring(quadratic_field_extension(f),
                                 [frob, second][:rank])
    sigma = [((1, 0), (0, draw(st.sampled_from([1, f.p - 1]))))
             for _ in range(rank)]
    return make_laurent_ring(truncated_dual(f), sigma)


@settings(max_examples=120, deadline=None)
@given(small_rings())
def test_conjugating_unit_matches_brute_search(ring):
    box = itertools.product(*[range(o) for o in ring.orders])
    for m in set(box) | set(laurent._candidate_exponents(ring)):
        assert conjugating_unit(ring, m) == brute_conjugating_unit(ring, m), m


@settings(max_examples=120, deadline=None)
@given(small_rings())
def test_witness_search_matches_a_solve_per_candidate(ring):
    old = next(((u, m) for m in laurent._candidate_exponents(ring)
                if (u := conjugating_unit(ring, m)) is not None), None)
    assert inner_witness_search(ring) == old


@settings(max_examples=60, deadline=None)
@given(small_rings(), st.data())
def test_center_structure_matches_direct_solves(ring, data):
    window = [sorted(data.draw(st.lists(st.integers(-5, 5), min_size=2,
                                        max_size=2)))
              for _ in range(ring.rank)]
    cs = laurent_center_structure(ring, window)
    alg = ring.algebra
    direct = {m: center_coefficient_space(ring, m) for m in
              itertools.product(*[range(lo, hi + 1) for lo, hi in window])}
    nonzero = [m for m, space in direct.items() if not space.is_zero]
    assert cs.slice_exponents == tuple(nonzero)
    assert cs.slice_bases == tuple(direct[m].basis for m in nonzero)
    assert cs.fixed_center == nucleus_and_center(alg).center.intersect(
        fixed_subspace(alg, ring.sigma))
    box = itertools.product(*[range(o) for o in ring.orders])
    units = {m: conjugating_unit(ring, m) for m in box}
    assert cs.l_points == tuple(m for m, u in units.items() if u is not None)
    assert cs.conjugators == tuple(u for u in units.values() if u is not None)


def test_center_structure_solves_once_per_residue(monkeypatch):
    f9 = quadratic_field_extension(F3)
    ring = make_laurent_ring(f9, [f9.involution] * 2)
    calls = []
    solve = laurent.center_coefficient_space

    def spy(ring, m):
        calls.append(m)
        return solve(ring, m)
    monkeypatch.setattr(laurent, "center_coefficient_space", spy)
    cs = laurent_center_structure(ring, [(-3, 2), (-1, 3)])
    assert ring.orders == (2, 2)
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(cs.slice_exponents) == 15


def test_a_laurent_request_solves_each_residue_once(monkeypatch):
    calls = []
    solve = laurent.center_coefficient_space

    def spy(ring, m):
        calls.append(m)
        return solve(ring, m)
    monkeypatch.setattr(laurent, "center_coefficient_space", spy)
    payload = (Path(__file__).resolve().parent.parent / "sample_requests"
               / "laurent_f4_frobenius.json").read_text()
    text = '{"kind": "laurent", "payload": %s}' % payload
    report = jsonio.run_request(jsonio.parse_request(text))["report"]
    assert report["orders"] == [2] and report["witness"] is not None
    # the witness search and the center structure share one table
    assert calls == [(0,), (1,)]


def test_unit_search_takes_the_request_budget():
    # F_{7^9} with sigma = 1: residue 0 holds all (7^9 - 1) / 6 = 6 725 601
    # points, over the default budget of 10^6 but under the one given; its
    # first point is a unit
    f7 = prime_field(7)
    ring = make_laurent_ring(extension_field(f7, 9, random.Random(0)),
                             [identity_matrix(f7, 9)])
    v = laurent_simplicity_verdict(ring, budget=10**7)
    assert v.sigma_simple and not v.simple
    assert v.witness == ((0,) * 8 + (1,), (1,))
    cs = laurent_center_structure(ring, [(-1, 1)], budget=10**7)
    assert cs.l_points == ((0,),)
    assert cs.slice_exponents == ((-1,), (0,), (1,))
    fresh = make_laurent_ring(ring.algebra, ring.sigma)
    with pytest.raises(BudgetExceeded, match="6725601 projective points"):
        inner_witness_search(fresh)


def test_window_over_budget_is_refused_before_any_solve(monkeypatch):
    ring = frobenius_ring()
    monkeypatch.setattr(laurent, "center_coefficient_space", None)
    with pytest.raises(BudgetExceeded):
        laurent_center_structure(ring, [(-5, 5)], budget=10)
    with pytest.raises(BudgetExceeded):
        check_window([(-3, 3), (0, 1)], 2, 13)
    assert check_window([(-3, 3), (0, 1)], 2, 14) == [(-3, 3), (0, 1)]
    assert check_window([(2, 1), (-10**9, 10**9)], 2, 0) == [(2, 1), (-10**9, 10**9)]
    # the rank is checked first: a malformed window, whatever its count
    for box in ([(-10**6, 10**6), (0, 1)], [(0, 1), (0, 1)], []):
        with pytest.raises(ValidationError, match="degree box has rank != 1"):
            check_window(box, 1, 10)
    with pytest.raises(ValidationError, match="rank != 1"):
        laurent_center_structure(ring, [(0, 1), (0, 1)])


def cycles_matrix(f, lengths):
    """The coordinate permutation with cycles of the given lengths."""
    perm, start = [], 0
    for n in lengths:
        perm += [start + (i + 1) % n for i in range(n)]
        start += n
    return tuple(tuple(f.one if perm[j] == i else f.zero for j in range(start))
                 for i in range(start))


def test_central_witness_check_refused_past_the_budget(monkeypatch):
    # F_2^10 with sigma of cycle type (2, 3, 5), order 30: the sweep counts
    # 1 023 points, the search finds the witness 1 + x^30, and its check
    # would evaluate 3 (30 * 10)^2 = 270 000 associators
    def refuse(*args):
        raise AssertionError("checked the witness")
    monkeypatch.setattr(laurent, "verify_central", refuse)
    ring = make_laurent_ring(product_algebra(F2, 10),
                             [cycles_matrix(F2, (2, 3, 5))])
    assert ring.orders == (30,)
    with pytest.raises(BudgetExceeded, match="1023 projective points"):
        is_sigma_simple(ring, budget=1022)
    with pytest.raises(BudgetExceeded, match="270000 associators of the "
                       "central-witness check exceed budget 100000"):
        laurent_simplicity_verdict(ring, budget=10 ** 5)
    assert inner_witness_search(ring, budget=10 ** 5) == ((1,) * 10, (30,))


def test_rings_are_freed_after_use():
    # sigma powers and residues are cached on the ring itself, so nothing
    # module-level keeps a ring alive once its caller drops it
    refs = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        f = prime_field(p)
        ring = make_laurent_ring(quadratic_field_extension(f),
                                 [frobenius_matrix(f)])
        laurent_center_structure(ring, [(-2, 2)])
        assert ring._sigma_powers
        refs.append(weakref.ref(ring))
    del ring
    gc.collect()
    assert [r() for r in refs] == [None] * 10
