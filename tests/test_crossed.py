import random
from pathlib import Path

import pytest

from gradix import algebra, crossed, jsonio
from gradix.algebra import (in_nucleus, is_associative, make_algebra,
                            nucleus_and_center, simple_under,
                            two_sided_inverse)
from gradix.catalog import (field_algebra, matrix_algebra, octonions,
                            product_algebra, quadratic_field_extension,
                            quaternions, random_graded_algebra, swap_matrix,
                            truncated_dual)
from gradix.crossed import (build_crossed_product, canonical_units,
                            crossed_center, is_G_simple,
                            recognize_crossed_system, trivial_system,
                            validate_crossed_system)
from gradix.errors import (AlphaNotNuclearUnit, BudgetExceeded, N1Violation,
                           N2Violation, N3Violation, NoNuclearUnit,
                           NotAutomorphism)
from gradix.fields import prime_field
from gradix.graded import is_graded_simple, is_strong, validate_gradation
from gradix.groups import cyclic, elementary_abelian_two
from gradix.linalg import Subspace, identity_matrix, projective_walk
from helpers import fixed_subspace, homogeneous_points, walk_without_points

F2 = prime_field(2)
F3 = prime_field(3)


def frobenius_system(field=None):
    ext = quadratic_field_extension(field or F3)
    g = cyclic(2)
    sigma = [identity_matrix(ext.field, 2), ext.involution]
    unit = ext.unit
    alpha = [[unit, unit], [unit, unit]]
    return validate_crossed_system(ext, g, sigma, alpha)


def swap_system():
    t = product_algebra(F3, 2)
    g = cyclic(2)
    sigma = [identity_matrix(F3, 2), swap_matrix(F3)]
    alpha = [[t.unit, t.unit], [t.unit, t.unit]]
    return validate_crossed_system(t, g, sigma, alpha)


def rotation_system():
    t = product_algebra(F3, 3)
    g = cyclic(3)
    rot = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    rot2 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    sigma = [identity_matrix(F3, 3), rot, rot2]
    alpha = [[t.unit] * 3 for _ in range(3)]
    return validate_crossed_system(t, g, sigma, alpha)


def quaternion_cocycle_system():
    """(Z/2)^2 twisted group ring of F3 with signs read off the quaternions."""
    qa, qgrad = quaternions(F3)
    t = field_algebra(F3)
    g = elementary_abelian_two(2)
    sigma = [identity_matrix(F3, 1)] * 4
    alpha = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            prod = qa.product_table[a][b]
            alpha[a][b] = (prod[g.mul(a, b)],)
    return validate_crossed_system(t, g, sigma, alpha)


SYSTEMS = [frobenius_system, swap_system, rotation_system,
           quaternion_cocycle_system,
           lambda: trivial_system(truncated_dual(F3), cyclic(2)),
           lambda: trivial_system(octonions(F3)[0], cyclic(2)),
           lambda: frobenius_system(F2)]


def test_axiom_violations_are_caught():
    ext = quadratic_field_extension(F3)
    g = cyclic(2)
    ident = identity_matrix(F3, 2)
    unit = ext.unit
    ones = [[unit, unit], [unit, unit]]
    with pytest.raises(N3Violation):
        validate_crossed_system(ext, g, [ext.involution, ext.involution], ones)
    with pytest.raises(NotAutomorphism):
        validate_crossed_system(ext, g, [ident, ((1, 1), (0, 1))], ones)
    with pytest.raises(AlphaNotNuclearUnit):
        validate_crossed_system(ext, g, [ident, ext.involution],
                                [[unit, unit], [unit, (0, 0)]])
    # sigma_1 * sigma_1 = sigma_1 != sigma_0 with a trivial cocycle
    t3 = product_algebra(F3, 3)
    rot = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    with pytest.raises(N1Violation):
        validate_crossed_system(t3, g, [identity_matrix(F3, 3), rot],
                                [[t3.unit] * 2 for _ in range(2)])
    # break the 2-cocycle identity over C4 at (r1, r1, r2)
    f = field_algebra(F3)
    c4 = cyclic(4)
    a = [[f.unit] * 4 for _ in range(4)]
    a[1][1] = (2,)
    with pytest.raises(N2Violation):
        validate_crossed_system(f, c4, [identity_matrix(F3, 1)] * 4, a)


def test_normalization_violation():
    f = field_algebra(F3)
    g = cyclic(2)
    a = [[f.unit, f.unit], [(2,), f.unit]]  # alpha(r1, e) != 1
    with pytest.raises(N3Violation):
        validate_crossed_system(f, g, [identity_matrix(F3, 1)] * 2, a)


@pytest.mark.parametrize("mk", SYSTEMS)
def test_products_are_strong_with_nuclear_units(mk):
    sys = mk()
    prod, grad = build_crossed_product(sys)
    assert prod.dim == sys.algebra.dim * sys.group.order
    assert validate_gradation(prod, grad.group, grad.degrees) == grad
    assert is_strong(prod, grad)
    nucleus = nucleus_and_center(prod).nucleus
    d = sys.algebra.dim
    for g in sys.group.elements():
        u = [prod.field.zero] * prod.dim
        u[g * d: (g + 1) * d] = sys.algebra.unit
        assert nucleus.contains(tuple(u))


def _spy(monkeypatch, name, modules):
    """Record the arguments of every call to `name` through the modules."""
    calls = []
    wrapped = getattr(algebra, name)

    def spy(*args):
        calls.append(args)
        return wrapped(*args)
    for mod in modules:
        monkeypatch.setattr(mod, name, spy)
    return calls


def test_a_crossed_request_solves_each_nucleus_once(monkeypatch):
    text = (Path(__file__).resolve().parent.parent / "sample_requests"
            / "crossed_f9_c2.json").read_text()
    solves = _spy(monkeypatch, "nucleus_and_center", (algebra, jsonio))
    inverses = _spy(monkeypatch, "two_sided_inverse", (crossed,))
    report = jsonio.run_request(jsonio.parse_request(text))["report"]
    assert report["centers_match"]
    # only the product, for the brute-force center: crossed_center solves
    # Z(T)^G as one system and never the nucleus of T
    assert [alg.dim for alg, in solves] == [4]
    # alpha takes the values 1 and -1 on C2; the canonical units are checked
    # against their closed-form inverses, which need no solve
    assert len(inverses) == 2
    inverses.clear()
    build_crossed_product(quaternion_cocycle_system())
    # the values 1 and -1 of the quaternion cocycle, in its validation
    assert len(inverses) == 2


def test_associativity_transfers_from_coefficients():
    field_prod, _ = build_crossed_product(frobenius_system())
    oct_prod, _ = build_crossed_product(
        trivial_system(octonions(F3)[0], cyclic(2)))
    assert is_associative(field_prod)
    assert not is_associative(oct_prod)
    assert oct_prod.dim == 16


@pytest.mark.parametrize("mk", SYSTEMS)
def test_graded_simple_iff_g_simple(mk):
    sys = mk()
    prod, grad = build_crossed_product(sys)
    gs = is_G_simple(sys.algebra, sys.sigma)
    graded = is_graded_simple(prod, grad)
    assert gs.simple == graded.simple


def test_g_simple_known_answers():
    assert is_G_simple(frobenius_system().algebra,
                       frobenius_system().sigma).simple
    sw = swap_system()
    assert is_G_simple(sw.algebra, sw.sigma).simple
    # without the swap the product ring has invariant ideals
    assert not is_G_simple(sw.algebra,
                           [identity_matrix(F3, 2)] * 2).simple
    dual = truncated_dual(F3)
    assert not is_G_simple(dual, [identity_matrix(F3, 2)] * 2).simple


@pytest.mark.parametrize("mk", SYSTEMS)
def test_center_formula_matches_brute_force(mk):
    sys = mk()
    prod, _ = build_crossed_product(sys)
    z, _ = crossed_center(sys)
    assert z.basis == nucleus_and_center(prod).center.basis


def test_fixed_center_is_field_for_simple_product():
    # for a G-simple coefficient ring the sigma-fixed center is a field
    from gradix.algebra import subfield_check
    for mk in (frobenius_system, swap_system, rotation_system):
        sys = mk()
        _, ztg = crossed_center(sys)
        assert subfield_check(sys.algebra, ztg)


def test_fixed_subspace_frobenius():
    sys = frobenius_system()
    fixed = fixed_subspace(sys.algebra, sys.sigma)
    assert fixed.rank == 1
    assert fixed.contains(sys.algebra.unit)


@pytest.mark.parametrize("mk", [frobenius_system, swap_system,
                                rotation_system, quaternion_cocycle_system,
                                lambda: trivial_system(octonions(F3)[0],
                                                       cyclic(2))])
def test_recognition_roundtrip_is_tensor_identical(mk):
    sys = mk()
    prod, grad = build_crossed_product(sys)
    back = recognize_crossed_system(prod, grad, units=canonical_units(sys))
    prod2, grad2 = build_crossed_product(back)
    assert prod2.mult == prod.mult
    assert prod2.unit == prod.unit
    assert grad2.degrees == grad.degrees


def test_recognition_with_searched_units_is_valid():
    sys = frobenius_system()
    prod, grad = build_crossed_product(sys)
    back = recognize_crossed_system(prod, grad)
    # the searched units need not be the canonical ones, but the recovered
    # system must satisfy the axioms and rebuild to the same dimension
    prod2, _ = build_crossed_product(back)
    assert prod2.dim == prod.dim
    assert simple_under(prod2).simple == simple_under(prod).simple


def test_recognition_inverts_each_unit_once(monkeypatch):
    sys = quaternion_cocycle_system()
    prod, grad = build_crossed_product(sys)
    solves = _spy(monkeypatch, "nucleus_and_center", (algebra,))
    inverses = _spy(monkeypatch, "two_sided_inverse", (crossed,))
    recognize_crossed_system(prod, grad, units=canonical_units(sys))
    # one inverse per unit off the identity, then the rebuilt system's
    # validation inverts the alpha values 1 and -1
    assert [r for _, r in inverses[:3]] == list(canonical_units(sys)[1:])
    assert len(inverses) == 5
    assert solves == []


def test_recognition_requires_nuclear_units():
    alg = truncated_dual(F3)
    grad = validate_gradation(alg, cyclic(2), [0, 1])
    assert not is_strong(alg, grad)
    with pytest.raises(NoNuclearUnit):
        recognize_crossed_system(alg, grad)


def units_by_enumeration(alg, grad):
    """Per component off the identity, the first point of
    `homogeneous_points` that is nuclear and invertible with its inverse,
    or None: the search that recognition ran before it solved for the
    nuclear part of R_g, kept as the reference."""
    g = grad.group
    return [next(((v, inv) for v in homogeneous_points(alg, grad, a)
                  if in_nucleus(alg, v)
                  and (inv := two_sided_inverse(alg, v)) is not None),
                 None)
            for a in range(g.order) if a != g.identity]


def recognition_cases():
    """Crossed products of M_2, F x F, H and O by C2, C3 and E2 (O only by
    C2, where the enumeration stays cheap), the systems above, and random
    C2-graded algebras over F_2, F_3 and F_5."""
    cases = []
    for f in (F2, F3):
        for t in (matrix_algebra(f, 2), product_algebra(f, 2),
                  quaternions(f)[0]):
            for g in (cyclic(2), cyclic(3), elementary_abelian_two(2)):
                cases.append(build_crossed_product(trivial_system(t, g)))
        cases.append(build_crossed_product(
            trivial_system(octonions(f)[0], cyclic(2))))
    cases += [build_crossed_product(mk()) for mk in SYSTEMS]
    rng = random.Random(7)
    for p in (2, 3, 5):
        for degrees in ([0, 1], [0, 0, 1], [0, 1, 1], [0, 0, 1, 1]):
            cases.append(random_graded_algebra(prime_field(p), cyclic(2),
                                               degrees, rng))
    return cases


def test_searched_units_match_the_enumeration(monkeypatch):
    found = []
    search = crossed.first_unit
    monkeypatch.setattr(crossed, "first_unit",
                        lambda alg, space: found.append(search(alg, space))
                        or found[-1])
    outcomes = set()
    for alg, grad in recognition_cases():
        want = units_by_enumeration(alg, grad)
        found.clear()
        if None in want:
            with pytest.raises(NoNuclearUnit):
                recognize_crossed_system(alg, grad)
            # the search stops at the first component without a unit
            assert found[-1] is None
            want = want[:want.index(None)]
        else:
            recognize_crossed_system(alg, grad)
        assert [pair for pair in found if pair is not None] == want
        outcomes.add(None in found)
    assert outcomes == {False, True}


def test_unit_search_never_enumerates_a_component(monkeypatch):
    # R_1 of dimension 11 holds no nuclear unit; the enumeration of its
    # (3^11 - 1) / 2 points took seconds
    monkeypatch.setattr(algebra, "projective_walk",
                        walk_without_points(projective_walk))
    alg, grad = random_graded_algebra(F3, cyclic(2), [0] + [1] * 11,
                                      random.Random(1))
    with pytest.raises(NoNuclearUnit, match="component 1"):
        recognize_crossed_system(alg, grad)


def test_unit_search_refused_past_the_budget(monkeypatch):
    # e_i e_j = 0 for i, j >= 1: associative, so R_1 is all nuclear, and
    # nilpotent, so none of its (3^14 - 1) / 2 = 2 391 484 points is a unit;
    # the search is refused before the first inverse
    def refuse(*args):
        raise AssertionError("visited a point")
    monkeypatch.setattr(algebra, "two_sided_inverse", refuse)
    entries = [(0, j, j, 1) for j in range(15)] + [(j, 0, j, 1) for j in range(1, 15)]
    alg = make_algebra(F3, 15, entries, (1,) + (0,) * 14)
    grad = validate_gradation(alg, cyclic(2), [0] + [1] * 14)
    with pytest.raises(BudgetExceeded, match="2391484 projective points"):
        recognize_crossed_system(alg, grad)
    r1 = Subspace.span(F3, 15, [alg.basis_vector(i) for i in range(1, 15)])
    with pytest.raises(BudgetExceeded):
        algebra.first_unit(alg, r1, budget=2391483)


def test_quaternion_cocycle_rebuilds_quaternions():
    sys = quaternion_cocycle_system()
    prod, _ = build_crossed_product(sys)
    qa, _ = quaternions(F3)
    assert prod.mult == qa.mult
