import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import algebra, jsonio, linalg
from gradix.algebra import (SimplicityVerdict, ideal_closure, make_algebra,
                            multiply, simple_under, two_sided_inverse)
from gradix.catalog import (field_algebra, frobenius_matrix, group_algebra,
                            matrix_algebra, octonions, product_algebra,
                            quadratic_field_extension, quaternions,
                            swap_matrix, truncated_dual)
from gradix.cayley import cayley_double
from gradix.crossed import (build_crossed_product, trivial_system,
                            validate_crossed_system)
from gradix.errors import (BudgetExceeded, ExactModeUnavailable,
                           IncompatibleTensor, UnitNotInIdentityComponent,
                           ValidationError)
from gradix.fields import prime_field, rationals
from gradix.graded import (Gradation, is_faithful, is_graded_simple,
                           is_strong, simplicity_equivalence,
                           validate_gradation)
from gradix.groups import (cyclic, dihedral, direct_product,
                           elementary_abelian_two, symmetric)
from gradix.linalg import Subspace, identity_matrix, projective_walk
from helpers import (NONZERO_Q, degree_of, entries, homogeneous_points,
                     is_faithful_loop, is_strong_loop, left_by_basis,
                     product_with_swap, quotient_group, random_graded_algebra,
                     rescaled, right_by_basis, scalar_vec, sedenions,
                     subgroup, tensor_loop, walk_without_points)

F2 = prime_field(2)
F3 = prime_field(3)


def homogeneous_sweep(alg, grad):
    """The homogeneous-point sweep alone: the reference for
    `is_graded_simple`.  A nonzero graded ideal contains a nonzero
    homogeneous element, so one closure per homogeneous point decides."""
    checked = 0
    for g in grad.support:
        for r in homogeneous_points(alg, grad, g):
            checked += 1
            if not ideal_closure(alg, [r]).is_full:
                return SimplicityVerdict(False, r, "exact", checked)
    return SimplicityVerdict(True, None, "exact", checked)


def coarsen(grad, normal):
    """Regrade by G/N; degrees get pushed through the projection."""
    quot, proj = quotient_group(grad.group, normal)
    return Gradation(quot, tuple(proj[d] for d in grad.degrees))


def homogeneous_inverse(alg, grad, r):
    """Two-sided inverse of a homogeneous element, normalized to the inverse
    degree: the component of any inverse at deg(r)^-1 is again an inverse."""
    g = degree_of(grad, r)
    assert g is not None, r
    s = two_sided_inverse(alg, r)
    if s is None:
        return None
    inv_g = grad.group.inv(g)
    s_h = tuple(c if grad.degrees[i] == inv_g else alg.field.zero
                for i, c in enumerate(s))
    if alg.multiply(r, s_h) == alg.unit and alg.multiply(s_h, r) == alg.unit:
        return s_h
    return None


def faithful_by_enumeration(alg, grad):
    """Every nonzero homogeneous point, one at a time: the reference for
    `is_faithful` over F_p.  r is faithful when r R_h and R_h r are nonzero
    for every h in the support."""
    for g in grad.support:
        for r in homogeneous_points(alg, grad, g):
            for h in grad.support:
                idx = grad.indices_of(h)
                if not any(any(right_by_basis(alg, b, r)) for b in idx):
                    return False
                if not any(any(left_by_basis(alg, b, r)) for b in idx):
                    return False
    return True


def component_subspace(alg, grad, g):
    idx = grad.indices_of(g)
    return Subspace(alg.field, alg.dim,
                    tuple(alg.basis_vector(i) for i in idx), idx)


def subspace_product(alg, u, v):
    return Subspace.span(alg.field, alg.dim,
                         [alg.multiply(a, b) for a in u.basis for b in v.basis])


def strong_by_spans(alg, grad):
    """R_g R_h = R_{gh} compared as subspaces: the reference for `is_strong`."""
    return all(subspace_product(alg, component_subspace(alg, grad, g),
                                component_subspace(alg, grad, h))
               == component_subspace(alg, grad, grad.group.mul(g, h))
               for g in grad.support for h in grad.support)


GROUPS = [cyclic(2), cyclic(3), elementary_abelian_two(2)]


@st.composite
def random_graded_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    group = draw(st.sampled_from(GROUPS))
    if p == 3 and draw(st.booleans()):
        # an identity component of dimension 4 puts 40 points in one
        # component, past d^2 at d = 4 to 6, the smaller d included
        head = [group.identity] * 4
        tail = draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    else:
        head = [group.identity]
        tail = draw(st.lists(st.integers(0, group.order - 1),
                             min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_graded_algebra(prime_field(p), group, head + tail, rng)


@st.composite
def crossed_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    base = draw(st.sampled_from([field_algebra, quadratic_field_extension,
                                 truncated_dual,
                                 lambda f: product_algebra(f, 2),
                                 lambda f: matrix_algebra(f, 2)]))
    group = draw(st.sampled_from(GROUPS))
    return build_crossed_product(trivial_system(base(prime_field(p)), group))


@st.composite
def cayley_cases(draw):
    f = prime_field(draw(st.sampled_from([3, 5])))
    alg = draw(st.sampled_from([field_algebra, quadratic_field_extension,
                                truncated_dual, product_with_swap]))(f)
    for mu in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        if alg.dim * 2 > 8:
            break
        alg, grad = cayley_double(alg, mu % f.p or 1)
    return alg, grad


def test_graded_simple_not_simple_by_norton():
    # M_2(F_3)[C2] = M_2(F_3) x M_2(F_3): 80 homogeneous points > 8 send
    # it to Norton's test, where only the projections make it irreducible
    prod, grad = build_crossed_product(trivial_system(matrix_algebra(F3, 2),
                                                      cyclic(2)))
    with mock.patch.object(algebra, "_norton_irreducible",
                           wraps=algebra._norton_irreducible) as spy:
        v = is_graded_simple(prod, grad)
    assert spy.called
    assert v == SimplicityVerdict(True, None, "exact", 80)
    assert v == homogeneous_sweep(prod, grad)
    assert not simple_under(prod).simple


def test_graded_verdict_matches_homogeneous_sweep():
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_graded_cases(), crossed_cases(), cayley_cases()))
    def check(case):
        alg, grad = case
        assert is_graded_simple(alg, grad) == homogeneous_sweep(alg, grad)

    with mock.patch.object(algebra, "_norton_irreducible",
                           wraps=algebra._norton_irreducible) as norton:
        check()
    assert any(call.args[0].dim <= 4 for call in norton.call_args_list), \
        "Norton's test was never taken at d <= 4"
    assert any(call.args[0].dim >= 5 for call in norton.call_args_list), \
        "Norton's test was never taken at d >= 5"


@st.composite
def graded_norton_cases(draw):
    """A graded algebra of dimension 5 to 8 over F_2, F_3, F_5 or F_7 whose
    graded verdict runs Norton's test first (more than d homogeneous
    points, here more than 2 d): trivial crossed products of H and M_2 by C2, Cayley doubles of
    dimension 8 with their C2-gradation, and random C2-graded algebras with
    components of dimensions 3 or 4 and at most that."""
    f = prime_field(draw(st.sampled_from([2, 3, 5, 7])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["crossed", "double", "random"]))
    if kind == "crossed":
        base = draw(st.sampled_from([lambda f: quaternions(f)[0],
                                     lambda f: matrix_algebra(f, 2)]))
        return build_crossed_product(trivial_system(base(f), cyclic(2)))
    if kind == "double":
        alg = draw(st.sampled_from([field_algebra, quadratic_field_extension,
                                    truncated_dual, product_with_swap]))(f)
        while alg.dim < 8:
            alg, grad = cayley_double(alg, rng.randrange(1, f.p))
        return alg, grad
    # components of dimensions a >= b keep the sweep under 801 points, and
    # over F_2 past 2 d of them
    a = draw(st.integers(3, 4))
    b = draw(st.integers(5 - a if f.p > 2 else 6 - a, a))
    return random_graded_algebra(f, cyclic(2), [0] * a + [1] * b, rng)


@settings(max_examples=60, deadline=None)
@given(graded_norton_cases())
def test_graded_norton_verdicts_match_homogeneous_sweep(case):
    alg, grad = case
    with mock.patch.object(algebra, "_norton_irreducible",
                           wraps=algebra._norton_irreducible) as spy:
        assert is_graded_simple(alg, grad) == homogeneous_sweep(alg, grad)
    assert spy.call_count == 1


def test_undecided_norton_within_d_squared_falls_back_to_the_sweep(monkeypatch):
    # 14 homogeneous points at d = 6: past d, so Norton's test runs, and
    # when no draw decides the sweep does
    monkeypatch.setattr(algebra, "NORTON_DRAWS", 0)
    with mock.patch.object(algebra, "_norton_irreducible",
                           wraps=algebra._norton_irreducible) as norton:
        for seed in range(3):
            alg, grad = random_graded_algebra(F2, cyclic(2), [0, 0, 0, 1, 1, 1],
                                              random.Random(seed))
            v = is_graded_simple(alg, grad)
            assert v == homogeneous_sweep(alg, grad)
    assert norton.call_count == 3


def test_graded_quaternion_crossed_product_needs_no_sweep(monkeypatch):
    # H x| C4 over F_3: Norton's test proves it graded simple, and none of
    # its 160 homogeneous points is visited
    prod, grad = build_crossed_product(trivial_system(quaternions(F3)[0],
                                                      cyclic(4)))

    monkeypatch.setattr(algebra, "projective_walk",
                        walk_without_points(projective_walk))
    assert is_graded_simple(prod, grad) == SimplicityVerdict(True, None,
                                                             "exact", 160)


# groups of order 3 to 8 with a map onto C2 (0 for all of C3), which picks
# the group elements that act on T by the twist
TWISTED_GROUPS = [(cyclic(3), lambda a: 0), (cyclic(4), lambda a: a % 2),
                  (elementary_abelian_two(2), lambda a: a & 1),
                  (dihedral(4), lambda a: a >= 4),
                  (direct_product(cyclic(2), cyclic(4)), lambda a: a // 4),
                  (elementary_abelian_two(3), lambda a: a & 1)]


def twisted_product(t, twist, group, sign):
    """T x| G with sigma_g = twist^sign(g) and alpha = 1."""
    ident = identity_matrix(t.field, t.dim)
    sigma = [twist if sign(a) else ident for a in group.elements()]
    ones = [[t.unit] * group.order for _ in range(group.order)]
    return build_crossed_product(validate_crossed_system(t, group, sigma, ones))


def test_thirty_two_homogeneous_points_go_to_norton(monkeypatch):
    # F_9 x| C2xC4 with the Galois twist and F_3 x F_3 x| D4 with the swap:
    # d = 16 and 32 homogeneous points, past d, so Norton's test proves
    # them graded simple without a sweep point; with no draw, Norton's test
    # undecided, the sweep gives the same verdict
    ext = quadratic_field_extension(F3)
    cases = [twisted_product(ext, ext.involution, *TWISTED_GROUPS[4]),
             twisted_product(product_algebra(F3, 2), swap_matrix(F3),
                             *TWISTED_GROUPS[3])]
    want = SimplicityVerdict(True, None, "exact", 32)
    with monkeypatch.context() as mp:
        mp.setattr(algebra, "projective_walk",
                   walk_without_points(projective_walk))
        assert [is_graded_simple(*case) for case in cases] == [want, want]
    monkeypatch.setattr(algebra, "NORTON_DRAWS", 0)
    assert [is_graded_simple(*case) for case in cases] == [want, want]


@st.composite
def between_d_and_2d_cases(draw):
    """A graded algebra of dimension 5 to 16 with more than d and at most 2 d
    homogeneous points: T x| G for a two-dimensional T over F_2 or F_3, and
    random C2-graded algebras over F_2 with components of dimensions 3
    and 2, the unit in the identity component."""
    f = prime_field(draw(st.sampled_from([2, 3])))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        tail = draw(st.permutations([0, 1, 1, draw(st.integers(0, 1))]))
        return random_graded_algebra(F2, cyclic(2), [0] + tail, rng)
    t, twist = draw(st.sampled_from([
        (quadratic_field_extension(f), frobenius_matrix(f)),
        (product_algebra(f, 2), swap_matrix(f)),
        (truncated_dual(f), identity_matrix(f, 2))]))
    group, sign = draw(st.sampled_from(TWISTED_GROUPS))
    if draw(st.booleans()):
        sign = lambda a: 0
    return twisted_product(t, twist, group, sign)


@settings(max_examples=60, deadline=None)
@given(between_d_and_2d_cases())
def test_norton_between_d_and_2d_matches_homogeneous_sweep(case):
    alg, grad = case
    total = sum(len(list(homogeneous_points(alg, grad, g)))
                for g in grad.support)
    assert alg.dim >= 5 and alg.dim < total <= 2 * alg.dim
    with mock.patch.object(algebra, "_norton_irreducible",
                           wraps=algebra._norton_irreducible) as spy:
        assert is_graded_simple(alg, grad) == homogeneous_sweep(alg, grad)
    assert spy.call_count == 1


def test_validate_gradation_flags():
    alg, grad = group_algebra(F3, cyclic(4))
    assert validate_gradation(alg, grad.group, grad.degrees) == grad
    assert grad.support == (0, 1, 2, 3)
    assert is_strong(alg, grad) and is_faithful(alg, grad)
    # over a nonabelian group R_g R_h and R_h R_g are different components
    alg, grad = group_algebra(F2, symmetric(3))
    assert is_strong(alg, grad) and is_faithful(alg, grad)


@st.composite
def faithfulness_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    # S3 tells R_{gh} from R_{hg}
    group = draw(st.sampled_from(GROUPS + [symmetric(3)]))
    tail = draw(st.lists(st.integers(0, group.order - 1), min_size=1,
                         max_size=4 if p < 5 else 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_graded_algebra(prime_field(p), group,
                                 [group.identity] + tail, rng)


def test_strength_and_faithfulness_match_the_enumeration():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(faithfulness_cases())
    def check(case):
        alg, grad = case
        faithful = is_faithful(alg, grad)
        assert faithful == faithful_by_enumeration(alg, grad)
        assert is_strong(alg, grad) == strong_by_spans(alg, grad)
        seen.add(faithful)

    check()
    assert seen == {True, False}, "every draw had the same faithfulness"


@settings(max_examples=100, deadline=None)
@given(faithfulness_cases(), st.booleans(), st.data())
def test_strength_and_faithfulness_match_the_product_table_loops(case, over_q, data):
    """The slices of the tensor decide what the rows of the product table
    decided, over F_p and, for the same constants read as integers, over Q
    on a basis rescaled by rationals."""
    alg, grad = case
    if over_q:
        q = rationals()
        lifted = make_algebra(q, alg.dim, entries(alg), alg.unit)
        alg = rescaled(lifted, [data.draw(NONZERO_Q) for _ in range(alg.dim)])
        grad = validate_gradation(alg, grad.group, grad.degrees)
    assert is_strong(alg, grad) == is_strong_loop(alg, grad)
    assert is_faithful(alg, grad) == is_faithful_loop(alg, grad)


def test_strength_and_faithfulness_over_rationals():
    q = rationals()
    dual = truncated_dual(q)
    grad = validate_gradation(dual, cyclic(2), [0, 1])
    assert not is_strong(dual, grad) and not is_faithful(dual, grad)
    alg, grad = quaternions(q)
    assert is_strong(alg, grad) and is_faithful(alg, grad)


def test_faithfulness_is_decided_without_enumerating(monkeypatch):
    # 797 161 projective points in the one component of F_3^13
    alg = product_algebra(F3, 13)
    grad = validate_gradation(alg, cyclic(1), [0] * 13)

    def refuse(*args):
        raise AssertionError("enumerated the points of a component")
    for module in (linalg, algebra):
        monkeypatch.setattr(module, "projective_walk", refuse)
    assert is_faithful(alg, grad)


def test_validate_gradation_rejects():
    alg4, _ = group_algebra(F3, cyclic(4))
    # u^2 lands in degree 2, so assigning u degree 1 and u^2 degree 0 fails
    with pytest.raises(IncompatibleTensor):
        validate_gradation(alg4, cyclic(4), [0, 1, 0, 1])
    alg, _ = group_algebra(F3, cyclic(2))
    with pytest.raises(ValidationError):
        validate_gradation(alg, cyclic(2), [0])
    with pytest.raises(ValidationError):
        validate_gradation(alg, cyclic(2), [0, 5])
    # unit outside the identity component is impossible through make_algebra
    # (compatible tensor + unitality force it), but the guard still fires on
    # a hand-built value
    from gradix.algebra import Algebra
    mult = ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1))
    fake = Algebra(F3, 2, *tensor_loop(F3, 2, mult), (0, 1))
    with pytest.raises(UnitNotInIdentityComponent):
        validate_gradation(fake, cyclic(2), [0, 1])


def test_trivial_component_gradation_not_strong():
    # dual numbers graded by Z/2 with x in degree 1: x*x = 0 kills strength
    alg = truncated_dual(F3)
    grad = validate_gradation(alg, cyclic(2), [0, 1])
    assert not is_strong(alg, grad)
    assert not is_faithful(alg, grad)


def test_homogeneous_points_cover_component():
    alg, grad = quaternions(F3)
    pts = list(homogeneous_points(alg, grad, 1))
    assert len(pts) == 1  # one projective point on a line
    assert all(degree_of(grad, v) == 1 for v in pts)


def test_graded_closure_matches_plain_closure_on_homogeneous():
    # the plain closure of a homogeneous point is graded: each row of its
    # echelon basis is homogeneous, so it is the graded closure too
    alg, grad = octonions(F3)
    for g in grad.support:
        for r in homogeneous_points(alg, grad, g):
            assert all(degree_of(grad, row) is not None
                       for row in ideal_closure(alg, [r]).basis)


def test_group_algebra_graded_simple_not_simple():
    alg, grad = group_algebra(F2, cyclic(2))
    assert is_graded_simple(alg, grad).simple
    assert not simple_under(alg).simple


def test_graded_simple_budget_and_rationals():
    alg, grad = group_algebra(F2, cyclic(2))
    with pytest.raises(BudgetExceeded):
        is_graded_simple(alg, grad, budget=1)
    qalg, qgrad = group_algebra(rationals(), cyclic(2))
    with pytest.raises(ExactModeUnavailable):
        is_graded_simple(qalg, qgrad)


def test_component_products_in_strong_gradation():
    alg, grad = quaternions(F3)
    g_set = grad.support
    for g in g_set:
        for h in g_set:
            lhs = subspace_product(alg, component_subspace(alg, grad, g),
                                   component_subspace(alg, grad, h))
            rhs = component_subspace(alg, grad, grad.group.mul(g, h))
            assert lhs.basis == rhs.basis


def test_coarsen_octonions_to_z2():
    alg, grad = octonions(F3)
    n = subgroup(grad.group, [0, 1, 2, 3])
    coarse = coarsen(grad, n)
    assert coarse.group.order == 2
    assert set(coarse.degrees) == {0, 1}
    validate_gradation(alg, coarse.group, coarse.degrees)


def test_homogeneous_inverse():
    alg, grad = quaternions(F3)
    for g in grad.support:
        for r in homogeneous_points(alg, grad, g):
            s = homogeneous_inverse(alg, grad, r)
            if s is None:
                continue
            assert multiply(alg, r, s) == alg.unit
            assert degree_of(grad, s) == grad.group.inv(g)


def test_equivalence_on_known_instances():
    cases = [
        (group_algebra(F2, cyclic(2)), True, False),
        (quaternions(F3), True, True),
        (octonions(F3), True, True),
        (group_algebra(F3, cyclic(3)), True, False),
    ]
    for (alg, grad), want_graded, want_simple in cases:
        eq = simplicity_equivalence(alg, grad)
        assert eq.hypercentral
        assert eq.graded_simple.simple == want_graded
        assert eq.simple.simple == want_simple
        assert eq.consistent


def test_equivalence_needs_hypercentral_group_to_bind():
    # S3-graded: the equivalence is only asserted under hypercentral groups,
    # so consistency is reported vacuously when the group is not
    alg, grad = group_algebra(F2, symmetric(3))
    eq = simplicity_equivalence(alg, grad)
    assert not eq.hypercentral
    assert eq.consistent


def test_sedenion_gradation_strong_and_graded_simple():
    alg, grad = sedenions(F3)
    assert alg.dim == 16
    assert grad.group.order == 16
    assert validate_gradation(alg, grad.group, grad.degrees) == grad
    assert is_strong(alg, grad)
    # full exact simplicity is over budget at dim 16; the graded test only
    # needs the 16 homogeneous lines
    assert is_graded_simple(alg, grad).simple
    with pytest.raises(BudgetExceeded):
        simple_under(alg)


def test_degree_of_mixed_is_none():
    alg, grad = quaternions(F3)
    assert degree_of(grad, scalar_vec(alg, 0)) is None
    mixed = alg.add_vec(alg.basis_vector(0), alg.basis_vector(1))
    assert degree_of(grad, mixed) is None
    assert Gradation(elementary_abelian_two(1), (0, 1)).indices_of(1) == (1,)


def test_graded_request_over_rationals_decides_faithfulness():
    dual_numbers = {"field": {"kind": "Q"}, "dim": 2, "unit": ["1", "0"],
                    "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                             {"i": 0, "j": 1, "k": 1, "c": "1"},
                             {"i": 1, "j": 0, "k": 1, "c": "1"}]}
    doc = jsonio.parse_request(json.dumps({
        "kind": "graded",
        "payload": {"algebra": dual_numbers,
                    "gradation": {"group": "C2", "degrees": [0, 1]}}}))
    block = jsonio.run_request(doc)["report"]["gradation"]
    assert (block["strong"], block["faithful"], block["faithful_mode"]) \
        == (False, False, "exact")
