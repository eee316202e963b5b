import gc
import itertools
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import jsonio, laurent
from gradix.algebra import (first_unit, make_algebra, nucleus_and_center,
                            two_sided_inverse)
from gradix.catalog import (field_algebra, frobenius_matrix,
                            matrix_algebra, octonions, product_algebra,
                            quadratic_field_extension, quaternions,
                            swap_matrix, truncated_dual)
from gradix.errors import (BudgetExceeded, ExactModeUnavailable,
                           UnboundedSearch, ValidationError)
from gradix.fields import prime_field, rationals
from gradix.laurent import (center_coefficient_space, check_window,
                            inner_witness_search, is_sigma_simple,
                            laurent_center_structure, LaurentElement,
                            laurent_element, laurent_simplicity_verdict,
                            make_laurent_ring, sigma_power, verify_central)
from gradix.linalg import identity_matrix, mat_vec, projective_points
from helpers import (NONZERO_Q, conjugation_matrix, entries,
                     extension_field, fixed_subspace, intersect, laurent_add,
                     laurent_associator, laurent_commutator, laurent_multiply,
                     laurent_one, matrix_order_loop, rescaled, rescaled_matrix,
                     sigma_power_loop, verify_central_loop, x_power)

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
    assert cs.fixed_center == intersect(nucleus_and_center(alg).center,
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


def cyclotomic(k):
    """The coefficients of the k-th cyclotomic polynomial, lowest first:
    X^k - 1 divided by every Phi_j, j a proper divisor of k."""
    poly = [-1] + [0] * (k - 1) + [1]
    for j in range(1, k):
        if k % j == 0:
            div = cyclotomic(j)
            quot = [0] * (len(poly) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = poly[i + len(div) - 1]
                for t, c in enumerate(div):
                    poly[i + t] -= quot[i] * c
            poly = quot
    return poly


def companion_blocks(ks):
    """The block-diagonal matrix over Q of the companion matrices of
    Phi_k, k in ks, of order lcm(ks)."""
    blocks = []
    for k in ks:
        c = cyclotomic(k)
        n = len(c) - 1
        blocks.append([[Fraction(int(i == j + 1) - (j == n - 1) * c[i])
                        for j in range(n)] for i in range(n)])
    d = sum(map(len, blocks))
    out, at = [[Fraction(0)] * d for _ in range(d)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return tuple(map(tuple, out))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), min_size=1,
                max_size=4).filter(lambda ks: len(companion_blocks(ks)) <= 8),
       st.booleans(), st.data())
def test_q_orders_match_the_powers(ks, nudge, data):
    """Over Q on matrices of order lcm(ks) in a rescaled basis, or of
    infinite order once one entry is moved: the order read mod a prime and
    checked in Fractions is the first k with m^k = I, where no finite order
    passes 60 at d <= 8."""
    m = [list(row) for row in companion_blocks(ks)]
    d = len(m)
    if nudge:
        m[data.draw(st.integers(0, d - 1))][data.draw(st.integers(0, d - 1))] += 1
    m = rescaled_matrix(m, [data.draw(NONZERO_Q) for _ in range(d)])
    want = matrix_order_loop(Q, m, 60)
    assert laurent._matrix_order(product_algebra(Q, d), m, 1) == want
    if not nudge:
        assert want == math.lcm(*ks)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1,
                max_size=4).filter(lambda ks: sum(ks) <= 8),
       st.booleans(), st.data())
def test_q_orders_of_signed_permutations(lengths, shear, data):
    """A signed permutation in a rescaled basis: a k-cycle whose signs
    multiply to -1 has order 2k, else k, and the matrix the lcm of its
    cycles' orders, at most 60 at d <= 8; beside the block [[1, 1], [0, 1]]
    its order is infinite.  `_matrix_order` and the Fraction powers of
    `matrix_order_loop` both find that order."""
    d = sum(lengths)
    signs = [data.draw(st.sampled_from([1, -1])) for _ in range(d)]
    m = [[sign * c for c, sign in zip(row, signs)]
         for row in cycles_matrix(Q, lengths)]
    orders, start = [], 0
    for k in lengths:
        flips = math.prod(signs[start:start + k])
        orders.append(k if flips == 1 else 2 * k)
        start += k
    want = math.lcm(*orders)
    if shear:
        m = [row + [0, 0] for row in m] + [[0] * d + [1, 1], [0] * d + [0, 1]]
        d, want = d + 2, None
    m = rescaled_matrix(m, [data.draw(NONZERO_Q) for _ in range(d)])
    assert laurent._matrix_order(product_algebra(Q, d), m, 1) == want
    assert matrix_order_loop(Q, m, 60) == want


def test_q_order_840_at_d_16():
    # Phi_8, Phi_3, Phi_5 and Phi_7 fill d = 16 with the largest finite order
    m = companion_blocks([8, 3, 5, 7])
    carrier = product_algebra(Q, 16)
    assert laurent._matrix_order(carrier, m, 1) == 840
    moved = [list(row) for row in m]
    moved[0][0] += Fraction(1, 3)
    assert laurent._matrix_order(carrier, moved, 1) is None


def test_finite_orders_over_q_past_64():
    # cycle type (8, 3, 5): order 120 over Q as over F_5, past the old cap
    # of 64; x -> 2x on Q[x] / (x^2) still has infinite order
    for f in (Q, prime_field(5)):
        perm = cycles_matrix(f, (8, 3, 5))
        assert make_laurent_ring(product_algebra(f, 16), [perm]).orders == (120,)
    assert make_laurent_ring(truncated_dual(Q), [((1, 0), (0, 2))]).orders == (None,)


@st.composite
def q_rings(draw):
    """Over Q: a permutation twist of Q^k on a basis rescaled by rationals
    (finite order), or x -> c x on Q[x] / (x^2) for a rational c other than
    0 and +-1 (infinite order)."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        perm = draw(st.permutations(range(k)))
        m = tuple(tuple(Fraction(int(perm[j] == i)) for j in range(k))
                  for i in range(k))
        scales = [draw(NONZERO_Q) for _ in range(k)]
        return make_laurent_ring(rescaled(product_algebra(Q, k), scales),
                                 [rescaled_matrix(m, scales)])
    c = draw(NONZERO_Q.filter(lambda c: abs(c) != 1))
    return make_laurent_ring(truncated_dual(Q), [((1, 0), (0, c))])


@settings(max_examples=80, deadline=None)
@given(small_rings() | q_rings(), st.data())
def test_sigma_powers_match_the_matrix_loop(ring, data):
    """sigma^m from `np_mat_pow` on the reduced exponent equals the product
    of Python matrix powers of the unreduced one, negative m included."""
    m = tuple(data.draw(st.integers(-7, 7)) for _ in range(ring.rank))
    got = sigma_power(ring, m)
    assert got == sigma_power_loop(ring, m)
    assert all(type(c) is type(ring.algebra.field.one) for row in got for c in row)


def test_the_budget_bounds_the_sweep_and_search_not_the_witness_check():
    # F_2^10 with sigma of cycle type (2, 3, 5), order 30: the sweep counts
    # 1 023 points and the search finds the witness 1 + x^30, whose check
    # is d^2 + d^3 products per term and takes no budget of its own
    def ring():
        return make_laurent_ring(product_algebra(F2, 10),
                                 [cycles_matrix(F2, (2, 3, 5))])
    assert ring().orders == (30,)
    with pytest.raises(BudgetExceeded, match="1023 projective points"):
        laurent_simplicity_verdict(ring(), budget=1022)
    r = ring()
    v = laurent_simplicity_verdict(r, budget=1023)
    assert v.witness == ((1,) * 10, (30,))
    assert v.central_witness == laurent_element(
        r, [((0,), r.algebra.unit), ((30,), (1,) * 10)])


def central_by_all_pairs(ring, c):
    """The centrality check over every pair of singles of the period box in
    each associator slot, 3 (|period box| d)^2 associators: the reference
    for `verify_central`, which checks each term against the center
    formula instead.
    Over F_p on arrays, from T's structure tensor and the sigma matrices
    alone: an element is a map from exponents to coefficient rows, one row
    per member of a batch, and (a x^m)(b x^k) = a sigma^m(b) x^{m+k} for
    every pair of members at once, the batch axes broadcast."""
    alg, p, d = ring.algebra, ring.algebra.field.p, ring.algebra.dim
    tensor = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k, v in entries(alg):
        tensor[i, j, k] += v
    sigma = [np.array(m, dtype=np.int64) for m in ring.sigma]

    def twist(m):                       # sigma^m, m reduced mod the orders
        out = np.eye(d, dtype=np.int64)
        for s, e, o in zip(sigma, m, ring.orders):
            for _ in range(e % o):
                out = s @ out % p
        return out

    def mul(x, y):
        out = {}
        for m, u in x.items():
            left = np.tensordot(u, tensor, axes=(-1, 0)) % p  # rows u e_j
            tw = twist(m).T
            for k, v in y.items():
                w = ((v @ tw % p)[..., None, :] @ left)[..., 0, :]
                mk = tuple(a + b for a, b in zip(m, k))
                out[mk] = (out.get(mk, 0) + w) % p
        return out

    def equal(x, y):
        return all(((x.get(m, 0) - y.get(m, 0)) % p == 0).all()
                   for m in x.keys() | y.keys())

    box = list(itertools.product(*[range(o) for o in ring.orders]))
    # single r = n d + b is e_b x^{box[n]}: one batch row per exponent
    singles = {}
    for n, j in enumerate(box):
        singles[j] = np.zeros((len(box) * d, d), dtype=np.int64)
        singles[j][n * d:(n + 1) * d] = np.eye(d, dtype=np.int64)
    a = {j: v[:, None] for j, v in singles.items()}      # batch axis 0
    b = {j: v[None] for j, v in singles.items()}         # batch axis 1
    c = {m: np.array(v, dtype=np.int64) % p for m, v in c.terms}
    return (equal(mul(c, singles), mul(singles, c)) and
            all(equal(mul(mul(x, y), z), mul(x, mul(y, z)))
                for x, y, z in ((c, a, b), (a, c, b), (a, b, c))))


def commutative_double(f, dim, rng):
    """A x A for a random commutative unital A of dimension `dim`, which is
    rarely associative, with the swap of the two factors: an element
    (u, u) x^2 commutes with the whole Laurent ring, and is central only
    when u is nuclear."""
    entries = [(0, j, j, 1) for j in range(dim)]
    entries += [(j, 0, j, 1) for j in range(1, dim)]
    for i in range(1, dim):
        for j in range(i, dim):
            for k in range(dim):
                c = rng.randrange(f.p)
                entries += [(i, j, k, c)] + ([(j, i, k, c)] if i != j else [])
    entries += [(i + dim, j + dim, k + dim, c) for i, j, k, c in entries]
    alg = make_algebra(f, 2 * dim, entries, (1,) + (0,) * (dim - 1) + (1,)
                       + (0,) * (dim - 1))
    swap = [[int(k == (j + dim) % (2 * dim)) for j in range(2 * dim)]
            for k in range(2 * dim)]
    return make_laurent_ring(alg, [swap])


def diagonal(f, signs):
    """The diagonal matrix of the signs +-1 over f."""
    return [[f.coerce(sign) * int(j == k) for j, sign in enumerate(signs)]
            for k in range(len(signs))]


def octonion_ring(rank, f=F3):
    """O with the doubling automorphism diag(1^4, -1^4) on each of the
    `rank` variables."""
    flip = diagonal(f, [1] * 4 + [-1] * 4)
    return make_laurent_ring(octonions(f)[0], [flip] * rank)


def inner_quaternion_ring(f=F3, rank=1):
    """H with sigma_1 the conjugation by i, diag(1, 1, -1, -1), of order 2,
    and at rank 2 also sigma_2 the conjugation by j, diag(1, -1, 1, -1):
    each is inner, so the central coefficients at x_1 are the line of i,
    at x_2 that of j and at x_1 x_2 that of k, and i x_1 is central."""
    flips = [diagonal(f, (1, 1, -1, -1)), diagonal(f, (1, -1, 1, -1))]
    return make_laurent_ring(quaternions(f)[0], flips[:rank])


CENTRAL_RINGS = [octonion_ring(1), octonion_ring(2),
                 commutative_double(F3, 3, random.Random(2)),
                 inner_quaternion_ring(),
                 commutative_double(F2, 3, random.Random(5)),
                 inner_quaternion_ring(prime_field(5), rank=2),
                 octonion_ring(1, prime_field(7))]


@st.composite
def near_central_elements(draw, ring):
    """(c, central): a sum of terms at any exponents, each coefficient a
    combination of the basis of `center_coefficient_space` at its exponent,
    at times shifted by a sigma-fixed vector, plus at times one random
    term; `central` says that nothing was shifted or added, so that c is
    central if the coefficient spaces are right.  Terms off the multiples
    of the orders carry the twist sigma^m."""
    alg = ring.algebra
    fixed = fixed_subspace(alg, ring.sigma).basis
    terms, central = [], True
    for _ in range(draw(st.integers(1, 3))):
        m = [draw(st.integers(-o, o)) for o in ring.orders]
        coeff = alg.scalar_vec(0)
        for row in center_coefficient_space(ring, m).basis:
            coeff = alg.add_vec(coeff, alg.scale(draw(st.integers(0, 2)), row))
        if draw(st.integers(0, 3)) == 0:
            coeff = alg.add_vec(coeff, draw(st.sampled_from(fixed)))
            central = False
        terms.append((m, coeff))
    if draw(st.integers(0, 3)) == 0:
        m = [draw(st.integers(-2, 2)) for _ in ring.orders]
        terms.append((m, [draw(st.integers(0, 2)) for _ in range(alg.dim)]))
        central = False
    return laurent_element(ring, terms), central


@pytest.mark.parametrize("ring", CENTRAL_RINGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_central_check_matches_all_pairs(ring, data):
    c, central = data.draw(near_central_elements(ring))
    oracle = central_by_all_pairs(ring, c)
    assert verify_central(ring, c) == oracle
    assert oracle or not central


Q_CENTRAL_RINGS = [
    inner_quaternion_ring(Q),
    make_laurent_ring(rescaled(product_algebra(Q, 2), [Fraction(2, 3), -5]),
                      [rescaled_matrix(swap_matrix(Q), [Fraction(2, 3), -5])]),
    inner_quaternion_ring(Q, rank=2)]


@pytest.mark.parametrize("ring", Q_CENTRAL_RINGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_central_check_matches_the_loop_over_q(ring, data):
    """Over Q, on elements of 1-3 terms at exponents down to -3, half of
    the coefficients drawn from the coefficient space of a central element
    at their exponent: the batched check, with its sigma scales, agrees
    with the Laurent products of `verify_central_loop`."""
    alg, terms = ring.algebra, []
    for _ in range(data.draw(st.integers(1, 3))):
        m = [data.draw(st.integers(-3, 3)) for _ in range(ring.rank)]
        rows = (center_coefficient_space(ring, m).basis if data.draw(st.booleans())
                else [alg.basis_vector(b) for b in range(alg.dim)])
        coeff = alg.scalar_vec(0)
        for row in rows:
            scalar = data.draw(st.sampled_from([0, 1]) | NONZERO_Q)
            coeff = alg.add_vec(coeff, alg.scale(Fraction(scalar), row))
        terms.append((m, coeff))
    c = laurent_element(ring, terms)
    assert verify_central(ring, c) == verify_central_loop(ring, c)


def nilpotent_hull(f, commutative=False, opposite=False):
    """F 1 + V on the basis 1, c, y, z, w, with c y = y c = z and y z = w,
    also z y = w when `commutative`, and the opposite products when
    `opposite`; sigma = diag(1, 1, -1, -1, 1).  c commutes with every
    element and is fixed, so c x^2 satisfies the commutator identity, but
    lies in only one of the three nuclei: the right one as built, the left
    one in the opposite algebra and the middle one in the commutative
    algebra."""
    prods = [(1, 2, 3), (2, 1, 3), (2, 3, 4)] + [(3, 2, 4)] * commutative
    if opposite:
        prods = [(j, i, k) for i, j, k in prods]
    entries = [(0, j, j, 1) for j in range(5)] + [(j, 0, j, 1) for j in range(1, 5)]
    alg = make_algebra(f, 5, entries + [(i, j, k, 1) for i, j, k in prods],
                       (1, 0, 0, 0, 0))
    return make_laurent_ring(alg, [diagonal(f, (1, 1, -1, -1, 1))])


def identity_cases():
    """(ring, element, which of the three conditions of `verify_central`
    hold on its one term: sigma-fixed, t c_m = c_m sigma^m(t), nuclear),
    exactly one failing in each: the generator w of F_4 with Frobenius
    commutes with T but is not fixed; i in H with sigma the conjugation by
    i is fixed and nuclear but does not commute with j at x^0; c x^-2 in
    each `nilpotent_hull` commutes and is fixed but lies in one nucleus
    only; and (u, u) x^2 in `commutative_double` with u not nuclear."""
    h = inner_quaternion_ring()
    f4 = frobenius_ring()
    cases = [(f4, laurent_element(f4, [((0,), (0, 1))]), (False, True, True)),
             (h, laurent_element(h, [((0,), (0, 1, 0, 0))]), (True, False, True))]
    for kw in [{}, {"opposite": True}, {"commutative": True}]:
        ring = nilpotent_hull(F3, **kw)
        cases.append((ring, laurent_element(ring, [((-2,), (0, 1, 0, 0, 0))]),
                      (True, True, False)))
    ring = commutative_double(F3, 3, random.Random(2))
    u = (0, 1, 0)
    cases.append((ring, laurent_element(ring, [((2,), u + u)]),
                  (True, True, False)))
    return cases


@pytest.mark.parametrize("ring, c, holds", identity_cases())
def test_each_identity_is_checked_on_its_own(ring, c, holds):
    """The loops find which of the three conditions hold, one of them
    failing, and both the batched check and the Laurent products of the
    period box call the element not central: a check that skipped any one
    condition would pass one of these cases."""
    alg, f = ring.algebra, ring.algebra.field
    (m, cm), = c.terms
    twist = sigma_power_loop(ring, m)
    fixed = all(mat_vec(f, s, cm) == cm for s in ring.sigma)
    commutes = all(alg.multiply(e, cm) == alg.multiply(cm, mat_vec(f, twist, e))
                   for e in map(alg.basis_vector, range(alg.dim)))
    nuclear = nucleus_and_center(alg).nucleus.contains(cm)
    assert (fixed, commutes, nuclear) == holds
    assert not verify_central(ring, c)
    assert not verify_central_loop(ring, c)


def test_central_check_decides_an_infinite_order():
    # M_2(Q) with sigma the conjugation by the shear P = [[1, 1], [0, 1]]:
    # t c = c P t P^-1 for all t puts c in the line of P^-1 at x^1 and of
    # P at x^-1, both fixed by sigma
    m2 = matrix_algebra(Q, 2)
    shear = m2.element((1, 1, 0, 1))
    ring = make_laurent_ring(m2, [conjugation_matrix(m2, shear)])
    assert ring.orders == (None,)
    inverse = two_sided_inverse(m2, shear)
    cases = [(laurent_element(ring, [((1,), inverse)]), True),
             (laurent_element(ring, [((-1,), shear), ((1,), inverse)]), True),
             (laurent_element(ring, [((1,), m2.unit)]), False),
             (laurent_element(ring, [((-1,), inverse)]), False)]
    for c, central in cases:
        assert verify_central(ring, c) == central
        assert verify_central_loop(ring, c, window=[(-2, 2)]) == central


@pytest.mark.parametrize("f", [F3, Q])
def test_at_rank_zero_the_central_check_is_the_center_of_t(f):
    h = quaternions(f)[0]
    ring = make_laurent_ring(h, [])
    assert verify_central(ring, laurent_element(ring, [((), h.unit)]))
    assert not verify_central(ring, laurent_element(ring, [((), (0, 1, 0, 0))]))


def test_the_central_check_solves_no_center(monkeypatch):
    # the check must stay independent of the solve that produced the
    # witness: no twisted center, no residue table
    witness = laurent_simplicity_verdict(frobenius_ring()).central_witness

    def refuse(*args, **kwargs):
        raise AssertionError("solved a center")
    monkeypatch.setattr(laurent, "fixed_center", refuse)
    ring = frobenius_ring()
    assert verify_central(ring, witness)
    assert not verify_central(ring, laurent_add(ring, witness, x_power(ring, (1,))))
    assert not ring._residues


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
