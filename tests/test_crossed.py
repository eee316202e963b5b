import itertools
import random
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import algebra, crossed, jsonio, linalg
from gradix.algebra import (Algebra, fixed_center, is_associative, multiply,
                            make_algebra, nucleus_and_center, simple_under,
                            two_sided_inverse)
from gradix.catalog import (field_algebra, frobenius_matrix, matrix_algebra,
                            octonions, product_algebra,
                            quadratic_field_extension, quaternions,
                            swap_matrix, truncated_dual)
from gradix.cayley import cayley_double
from gradix.crossed import (build_crossed_product, canonical_units,
                            crossed_center, is_G_simple, trivial_system,
                            validate_crossed_system)
from gradix.errors import (AlphaNotNuclearUnit, BudgetExceeded, N1Violation,
                           N2Violation, N3Violation, NotAutomorphism,
                           ValidationError)
from gradix.fields import prime_field, rationals
from gradix.graded import is_graded_simple, is_strong, validate_gradation
from gradix.groups import cyclic, dihedral, elementary_abelian_two
from gradix.linalg import Subspace, identity_matrix, projective_walk
import helpers
from helpers import (LOOPS, NONZERO_Q, NoNuclearUnit,
                     commutative_not_associative, conjugation_matrix, entries,
                     fixed_center_loop, fixed_subspace, homogeneous_points,
                     inverse_pairs_loop, random_graded_algebra,
                     recognize_crossed_system, rescaled, rescaled_matrix,
                     scalar_vec, scale_vec, walk_without_points)
from test_golden import CASES

F2 = prime_field(2)
F3 = prime_field(3)


def frobenius_system(field=F3):
    ext = quadratic_field_extension(field)
    g = cyclic(2)
    sigma = [identity_matrix(ext.field, 2), ext.involution]
    unit = ext.unit
    alpha = [[unit, unit], [unit, unit]]
    return validate_crossed_system(ext, g, sigma, alpha)


def swap_system(field=F3):
    t = product_algebra(field, 2)
    g = cyclic(2)
    sigma = [identity_matrix(field, 2), swap_matrix(field)]
    alpha = [[t.unit, t.unit], [t.unit, t.unit]]
    return validate_crossed_system(t, g, sigma, alpha)


def rotation_system(field=F3):
    t = product_algebra(field, 3)
    g = cyclic(3)
    rot = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    rot2 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    sigma = [identity_matrix(field, 3), rot, rot2]
    alpha = [[t.unit] * 3 for _ in range(3)]
    return validate_crossed_system(t, g, sigma, alpha)


def quaternion_cocycle_system(field=F3):
    """(Z/2)^2 twisted group ring of the field with signs read off the
    quaternions."""
    qa, qgrad = quaternions(field)
    t = field_algebra(field)
    g = elementary_abelian_two(2)
    sigma = [identity_matrix(field, 1)] * 4
    alpha = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            prod = multiply(qa, qa.basis_vector(a), qa.basis_vector(b))
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
    # a repeated bad sigma is named at its first place
    bad = ((1, 1), (0, 1))
    ones4 = [[unit] * 4 for _ in range(4)]
    with pytest.raises(NotAutomorphism, match=r"^sigma\[2\] "):
        validate_crossed_system(ext, cyclic(4),
                                [ident, ext.involution, bad, bad], ones4)
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


def test_each_distinct_sigma_is_checked_once(monkeypatch):
    # F_9 x| C4 by the Frobenius to the power g: four sigma, two matrices
    ext = quadratic_field_extension(F3)
    ident = identity_matrix(F3, 2)
    checked = []
    check = crossed.is_ring_automorphism
    monkeypatch.setattr(crossed, "is_ring_automorphism",
                        lambda t, m: checked.append(m) or check(t, m))
    validate_crossed_system(ext, cyclic(4), [ident, ext.involution] * 2,
                            [[ext.unit] * 4 for _ in range(4)])
    assert checked == [ident, ext.involution]


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


def _spy_center(monkeypatch):
    """Record the algebra of every solve of `Algebra._center`."""
    built = []
    solve = Algebra._center.func
    spy = cached_property(lambda alg: built.append(alg) or solve(alg))
    spy.__set_name__(Algebra, "_center")
    monkeypatch.setattr(Algebra, "_center", spy)
    return built


def test_a_crossed_request_solves_each_nucleus_once(monkeypatch):
    text = (Path(__file__).resolve().parent.parent / "sample_requests"
            / "crossed_f9_c2.json").read_text()
    solves = _spy(monkeypatch, "nucleus_and_center", (algebra, jsonio))
    centers = _spy(monkeypatch, "fixed_center", (algebra, crossed, jsonio))
    inverses = _spy(monkeypatch, "two_sided_inverse", (crossed,))
    built = _spy_center(monkeypatch)
    report = jsonio.run_request(jsonio.parse_request(text))["report"]
    assert report["centers_match"]
    # no nuclei and commuter are solved on their own: Z(T)^G and the
    # brute-force center of the product are each read off the cached
    # center of their algebra, which the request solves once per algebra
    assert solves == []
    assert [(alg.dim, len(maps)) for alg, maps in centers] == [(2, 2), (4, 0)]
    assert sorted(alg.dim for alg in built) == [2, 4]
    # alpha takes the values 1 and -1 on C2; the canonical units are checked
    # against their closed-form inverses, which need no solve
    assert len(inverses) == 2
    inverses.clear()
    build_crossed_product(quaternion_cocycle_system())
    # the values 1 and -1 of the quaternion cocycle, in its validation
    assert len(inverses) == 2


def test_the_commutants_of_a_crossed_request_solve_only_the_extra_maps(
        monkeypatch):
    # H x| C4 over F_3: the product's center has rank 4, and the graded
    # verdict's commutant imposes the four component projections on it in
    # one kernel, one np_rref; nothing is solved for the L_{e_j}, R_{e_j}.
    # Norton's test of G-simplicity finds the center of H to be the unit
    # line, and solves nothing at all.
    kind, text = CASES["crossed_h_c4_sign"]
    rrefs = []
    np_rref = linalg.np_rref
    monkeypatch.setattr(linalg, "np_rref",
                        lambda *args: rrefs.append(args) or np_rref(*args))
    commutant = algebra._commutant_field
    counts = []

    def spy(module, unit, center):
        before = len(rrefs)
        k = commutant(module, unit, center)
        counts.append((module.dim, len(module.gens), len(rrefs) - before, k))
        return k
    monkeypatch.setattr(algebra, "_commutant_field", spy)
    built = _spy_center(monkeypatch)
    jsonio.run_request(jsonio.wrap_bare_payload(text, kind))
    assert counts == [(4, 2 * 4 + 4, 0, 1), (16, 2 * 16 + 4, 1, 1)]
    assert sorted(alg.dim for alg in built) == [4, 16]


def test_an_associative_product_skips_its_zero_associators(monkeypatch):
    # H x| C4 over F_3 is associative: none of the 4 096 basis associators
    # of the 16-dimensional product reaches an elimination
    kind, text = CASES["crossed_h_c4_sign"]
    rows = []
    np_rref = linalg.np_rref
    monkeypatch.setattr(linalg, "np_rref",
                        lambda a, p: rows.append(np.shape(a)[0]) or np_rref(a, p))
    report = jsonio.run_request(jsonio.wrap_bare_payload(text, kind))
    assert report["report"]["product_associative"] is True
    assert rows and max(rows) <= 16 ** 2


def test_a_crossed_request_never_builds_the_dense_defect(monkeypatch):
    # H x| C4 over F_3: `is_associative`, the center's nuclear part and the
    # graded verdict all read the 16-dimensional product's block tensor,
    # built once
    kind, text = CASES["crossed_h_c4_sign"]
    dense, blocks = [], []
    for cls, calls in ((Algebra, dense), (crossed.CrossedProduct, blocks)):
        build = cls.__dict__["_np_defect"].func
        spy = cached_property(lambda self, build=build, calls=calls:
                              calls.append(self.dim) or build(self))
        spy.__set_name__(cls, "_np_defect")
        monkeypatch.setattr(cls, "_np_defect", spy)
    jsonio.run_request(jsonio.wrap_bare_payload(text, kind))
    assert blocks == [16]
    assert 16 not in dense


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
    gs = is_G_simple(sys)
    graded = is_graded_simple(prod, grad)
    assert gs.simple == graded.simple


def test_g_simple_known_answers():
    assert is_G_simple(frobenius_system()).simple
    sw = swap_system()
    assert is_G_simple(sw).simple
    # without the swap the product ring has invariant ideals
    assert not is_G_simple(trivial_system(sw.algebra, cyclic(2))).simple
    assert not is_G_simple(trivial_system(truncated_dual(F3), cyclic(2))).simple


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
    assert entries(prod2) == entries(prod)
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
    inverses = _spy(monkeypatch, "two_sided_inverse", (crossed, helpers))
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
                  if algebra.nuclear_mask(alg, [v])[0]
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
    search = algebra.first_unit
    monkeypatch.setattr(algebra, "first_unit",
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
    assert entries(prod) == entries(qa)


# -- contractions against the loops ----------------------------------------------

FIELD_SYSTEMS = [frobenius_system, swap_system, rotation_system,
                 quaternion_cocycle_system,
                 lambda f: trivial_system(truncated_dual(f), cyclic(2)),
                 lambda f: trivial_system(octonions(f)[0], cyclic(2))]


def _outcome(run):
    """What `run` returns, or the class and message of the ValidationError
    it raises."""
    try:
        return run()
    except ValidationError as exc:
        return type(exc), str(exc)


def _on_both_paths(run):
    """`_outcome(run)` with the contractions, then with the loops of
    `helpers.LOOPS` in their place."""
    fast = _outcome(run)
    with pytest.MonkeyPatch.context() as mp:
        for mod, name, loop in LOOPS:
            mp.setattr(mod, name, loop)
        slow = _outcome(run)
    return fast, slow


def _nudge(data, f, vec, where: str):
    """vec with one coordinate moved by a nonzero amount."""
    vec = list(vec)
    k = data.draw(st.integers(0, len(vec) - 1), label=f"{where} coordinate")
    vec[k] = f.add(vec[k], data.draw(st.integers(1, f.p - 1), label="shift"))
    return tuple(vec)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELD_SYSTEMS), st.sampled_from([F2, F3, prime_field(5)]),
       st.sampled_from(["none", "sigma", "alpha", "unchecked"]), st.data())
def test_contractions_match_the_generic_loops(mk, f, change, data):
    sys = mk(f)
    t, g, n = sys.algebra, sys.group, sys.group.order
    sigma = [list(m) for m in sys.sigma]
    alpha = [list(row) for row in sys.alpha]
    a = data.draw(st.integers(0, n - 1), label="g")
    b = data.draw(st.integers(0, n - 1), label="h")
    # another of the automorphisms, or a scalar multiple of the alpha,
    # mostly breaks N1 or N2; a nudged entry mostly breaks more
    other = data.draw(st.booleans(), label="keep the kind")
    if change == "sigma" and other:
        sigma[a] = sys.sigma[b]
    elif change == "sigma":
        sigma[a][b % t.dim] = _nudge(data, f, sigma[a][b % t.dim], "sigma")
    elif change in ("alpha", "unchecked") and other and f.p > 2:
        c = data.draw(st.integers(2, f.p - 1), label="scalar")
        alpha[a][b] = scale_vec(t, c, alpha[a][b])
    elif change in ("alpha", "unchecked"):
        alpha[a][b] = _nudge(data, f, alpha[a][b], "alpha")

    def build():
        if change == "unchecked":
            # past validation: the product of an alpha that may break N2, or
            # whose inverse is wrong, is built as it is
            inv = two_sided_inverse(t, alpha[a][b]) or t.unit
            rows = [list(row) for row in sys.alpha_inv]
            rows[a][b] = inv
            checked = crossed.CrossedSystem(
                t, g, sys.sigma, tuple(map(tuple, alpha)),
                tuple(map(tuple, rows)))
        else:
            checked = validate_crossed_system(t, g, sigma, alpha)
        prod, _ = build_crossed_product(checked)
        return entries(prod)

    fast, slow = _on_both_paths(build)
    assert fast == slow

    twist = [[data.draw(st.integers(0, f.p - 1), label="twist")
              for _ in range(t.dim)] for _ in range(t.dim)]
    for tw, maps in ((None, ()), (None, sys.sigma), (sys.sigma[a], ()),
                     (sys.sigma[a], sys.sigma), (twist, ())):
        assert fixed_center(t, maps, tw) == fixed_center_loop(t, maps, tw)


def diagonal(f, signs):
    return tuple(tuple(f.coerce(signs[i]) if i == j else f.zero
                       for j in range(len(signs))) for i in range(len(signs)))


def homs_to_c2(group):
    """Every homomorphism G -> Z/2, as a tuple of 0s and 1s."""
    maps = itertools.product((0, 1), repeat=group.order)
    return [m for m in maps if all(m[group.mul(a, b)] == m[a] ^ m[b]
                                   for a in group.elements()
                                   for b in group.elements())]


# (T, an automorphism of T), small enough with the groups below that the
# generic loops stay fast; the octonions and the commutative T have
# nontrivial nucleus equations, which only the latter needs
COEFFICIENTS = [lambda f: (commutative_not_associative(f),
                           identity_matrix(f, 3)),lambda f: (quadratic_field_extension(f), frobenius_matrix(f)),
                lambda f: (product_algebra(f, 2), swap_matrix(f)),
                lambda f: (truncated_dual(f), diagonal(f, [1, -1])),
                lambda f: (quaternions(f)[0], diagonal(f, [1, 1, -1, -1])),
                lambda f: (octonions(f)[0], identity_matrix(f, 8))]
HOM_GROUPS = [(g, homs_to_c2(g)) for g in (
    cyclic(2), cyclic(4), elementary_abelian_two(2), dihedral(3), dihedral(4))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([F2, F3, prime_field(5)]), st.sampled_from(COEFFICIENTS),
       st.sampled_from(HOM_GROUPS), st.data())
def test_center_rows_match_the_generic_loop(f, coefficients, hom_group, data):
    # sigma_g = twist^phi(g) and alpha(g, h) = (-1)^(psi(g) chi(h)) for maps
    # phi, psi, chi: G -> Z/2; over D3 and D4 hgh^-1 != g, so both kinds of
    # (ii) rows occur, and psi != chi makes alpha(g, h) != alpha(h, g)
    t, twist = coefficients(f)
    group, homs = hom_group
    if t.dim * group.order > 16:
        group, homs = HOM_GROUPS[0]
    phi, psi, chi = (data.draw(st.sampled_from(homs), label=name)
                     for name in ("phi", "psi", "chi"))
    ident = identity_matrix(f, t.dim)
    sigma = [twist if phi[a] else ident for a in group.elements()]
    alpha = [[scalar_vec(t, -1 if psi[a] and chi[b] else 1)
              for b in group.elements()] for a in group.elements()]
    sys = validate_crossed_system(t, group, sigma, alpha)
    fast, slow = _on_both_paths(lambda: crossed_center(sys))
    assert fast == slow
    prod, _ = build_crossed_product(sys)
    assert fast[0] == nucleus_and_center(prod).center


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F3, prime_field(5)]), st.sampled_from(COEFFICIENTS),
       st.data())
def test_twisted_centers_match_the_loop(f, coefficients, data):
    """`fixed_center` against one kernel of the loop rows, on associative T
    and on the octonions and `commutative_not_associative`: with no twist,
    the automorphism, a random matrix and a conjugation as the twist, each
    without maps and with the automorphism as the map."""
    t, sigma = coefficients(f)
    twists = [None, sigma,
              [[data.draw(st.integers(0, f.p - 1), label="twist")
                for _ in range(t.dim)] for _ in range(t.dim)]]
    u = tuple(data.draw(st.integers(0, f.p - 1), label="conjugator")
              for _ in range(t.dim))
    if two_sided_inverse(t, u) is not None:
        twists.append(conjugation_matrix(t, u))
    for tw in twists:
        for maps in ((), (sigma,)):
            assert fixed_center(t, maps, tw) == fixed_center_loop(t, maps, tw)


# -- the block associator tensor ------------------------------------------------

def non_nuclear_alpha_system(f):
    """O x| C2 built past validation with alpha(r, r) = e_1, an invertible
    octonion outside the nucleus, which `validate_crossed_system` refuses:
    the product builds, and u_r is a unit but not nuclear."""
    o = octonions(f)[0]
    e1 = o.basis_vector(1)
    inv = two_sided_inverse(o, e1) or o.unit
    return crossed.CrossedSystem(o, cyclic(2), (identity_matrix(f, 8),) * 2,
                                 ((o.unit, o.unit), (o.unit, e1)),
                                 ((o.unit, o.unit), (o.unit, inv)))


def _block_and_generic(sys):
    """The associator tensor of the product `build_crossed_product(sys)`
    builds, and `Algebra._np_defect` of it, the dense contraction."""
    prod = build_crossed_product(sys)[0]
    assert isinstance(prod, crossed.CrossedProduct)
    return prod._np_defect, Algebra._np_defect.func(prod)


def swap_d3_system(f):
    """F x F crossed with D3, whose reflections act by the swap: a group
    that is not abelian, so a table placed at degree ba is not graded."""
    t, g = product_algebra(f, 2), dihedral(3)
    sigma = [swap_matrix(f) if a >= 3 else identity_matrix(f, 2)
             for a in g.elements()]
    return validate_crossed_system(t, g, sigma, [[t.unit] * 6] * 6)


BLOCK_SYSTEMS = dict(zip(
    ["frobenius", "swap", "rotation", "quaternion_cocycle", "dual_c2",
     "octonions_c2", "octonions_c3", "swap_d3", "non_nuclear_alpha"],
    FIELD_SYSTEMS + [lambda f: trivial_system(octonions(f)[0], cyclic(3)),
                     swap_d3_system, non_nuclear_alpha_system]))
BLOCK_FIELDS = {"F2": F2, "F3": F3, "F5": prime_field(5),
                "F4294967311": prime_field(4294967311), "Q": rationals()}


# every system over every field, once each (the Frobenius twist has no
# meaning over Q): a failing pair is reported as it is, not shrunk
BLOCK_GRID = [pytest.param(mk, f, id=f"{sname}-{fname}")
              for sname, mk in BLOCK_SYSTEMS.items()
              for fname, f in BLOCK_FIELDS.items()
              if f.is_finite or mk is not frobenius_system]


@pytest.mark.parametrize("mk, f", BLOCK_GRID)
def test_block_defect_is_the_generic_tensor(mk, f):
    # past the int64 bound (p = 4294967311) and over Q both hold Python
    # ints; outside F_2 the octonion products are not associative
    fast, slow = _block_and_generic(mk(f))
    assert fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("mk, f", [p for p in BLOCK_GRID
                                   if p.values[0] is not non_nuclear_alpha_system])
def test_validated_products_pass_the_checks_left_to_validation(mk, f):
    sys = mk(f)
    helpers.assert_crossed_product_checks(sys, *build_crossed_product(sys))


@pytest.mark.parametrize("f", BLOCK_FIELDS.values(), ids=BLOCK_FIELDS)
def test_trivial_systems_are_the_validated_ones(f):
    # `trivial_system` builds its system unchecked
    for t in (truncated_dual(f), octonions(f)[0]):
        for g in (cyclic(2), dihedral(3)):
            sys = trivial_system(t, g)
            assert sys == validate_crossed_system(t, g, sys.sigma, sys.alpha)


def test_the_first_alpha_outside_the_nuclear_units_is_named():
    # octonions by C3: e_1 is a unit outside the nucleus and 0 no unit; the
    # distinct values are tested together, and the first bad (a, b) in
    # row-major order is named whichever way it fails
    o = octonions(F3)[0]
    sigma = (identity_matrix(F3, 8),) * 3
    zero, e1, one = scalar_vec(o, 0), o.basis_vector(1), o.unit
    for a12, a21, bad in [(e1, zero, "[1][2]"), (zero, e1, "[1][2]"),
                          (one, zero, "[2][1]"), (one, e1, "[2][1]")]:
        alpha = [[one] * 3, [one, one, a12], [one, a21, one]]
        with pytest.raises(AlphaNotNuclearUnit, match=re.escape(f"alpha{bad} =")):
            validate_crossed_system(o, cyclic(3), sigma, alpha)
    # by C2, the system that `non_nuclear_alpha_system` builds past validation
    sys = non_nuclear_alpha_system(F3)
    with pytest.raises(AlphaNotNuclearUnit, match=re.escape("alpha[1][1] =")):
        validate_crossed_system(o, cyclic(2), sys.sigma, sys.alpha)


# -- crossed products over Q ---------------------------------------------------------

QQ = rationals()


def gaussian_conjugation_system(alpha11=(1, 0)):
    """Q(i) x| C2 with sigma the conjugation, alpha(r, r) = alpha11."""
    qi = make_algebra(QQ, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                              (1, 1, 0, -1)], (1, 0))
    sigma = [identity_matrix(QQ, 2), ((1, 0), (0, -1))]
    alpha = [[qi.unit, qi.unit], [qi.unit, alpha11]]
    return validate_crossed_system(qi, cyclic(2), sigma, alpha)


@pytest.mark.parametrize("mk", [gaussian_conjugation_system,
                                lambda: quaternion_cocycle_system(QQ)])
def test_rational_crossed_products(mk):
    sys = mk()
    prod, grad = build_crossed_product(sys)
    assert is_strong(prod, grad)
    z, ztg = crossed_center(sys)
    assert z.basis == fixed_center(prod, ()).basis
    assert ztg.rank == 1 and ztg.contains(sys.algebra.unit)


def test_rational_quaternion_cocycle_builds_the_quaternions():
    prod, _ = build_crossed_product(quaternion_cocycle_system(QQ))
    assert entries(prod) == entries(quaternions(QQ)[0])
    assert fixed_center(prod, ()).rank == 1


def test_rational_cocycle_changes_are_refused():
    # alpha(r, r) = i is a nuclear unit, but sigma_r(i) = -i breaks N2
    with pytest.raises(N2Violation, match=r"\(1,1,1\)"):
        gaussian_conjugation_system((0, 1))
    sys = quaternion_cocycle_system(QQ)
    alpha = [list(row) for row in sys.alpha]
    alpha[1][2] = (-alpha[1][2][0],)
    with pytest.raises(N2Violation):
        validate_crossed_system(sys.algebra, sys.group, sys.sigma, alpha)


@st.composite
def q_systems(draw):
    """(T, G, sigma, alpha) over Q, T rescaled by nonzero rationals so that
    every array has denominators: a quaternion algebra or M_2(Q) crossed
    with C2 by the conjugation by a unit u and alpha(r, r) = c u^2 (N1 as
    sigma_r^2 is the conjugation by u^2, N2 as sigma_r fixes u^2); or
    Q x Q crossed with C3, E2 or D3 by sigma_g = swap^phi(g) and
    alpha(g, h) = (-1)^(psi(g) chi(h)) f(g) f(h) / f(gh) for maps
    phi, psi, chi: G -> Z/2 and f: G -> Q* with f(e) = 1, a sign cocycle
    times a coboundary, both fixed by the swap."""
    if draw(st.booleans()):
        c = draw(NONZERO_Q)
        if draw(st.booleans()):
            t = matrix_algebra(QQ, 2)
        else:
            t = field_algebra(QQ)
            for _ in range(2):
                t, _ = cayley_double(t, draw(NONZERO_Q))
        t = rescaled(t, [draw(NONZERO_Q) for _ in range(4)])
        u = tuple(draw(NONZERO_Q) for _ in range(4))
        if two_sided_inverse(t, u) is None:
            u = t.unit
        sigma = [identity_matrix(QQ, 4), conjugation_matrix(t, u)]
        alpha = [[t.unit, t.unit], [t.unit, scale_vec(t, c, t.multiply(u, u))]]
        return t, cyclic(2), sigma, alpha
    group, homs = draw(st.sampled_from(
        [(g, homs_to_c2(g)) for g in (cyclic(3), elementary_abelian_two(2),
                                      dihedral(3))]))
    scales = [draw(NONZERO_Q) for _ in range(2)]
    t = rescaled(product_algebra(QQ, 2), scales)
    swap = rescaled_matrix(swap_matrix(QQ), scales)
    phi, psi, chi = (draw(st.sampled_from(homs)) for _ in range(3))
    f = {a: Fraction(1) if a == group.identity else draw(NONZERO_Q)
         for a in group.elements()}
    sigma = [swap if phi[a] else identity_matrix(QQ, 2)
             for a in group.elements()]
    alpha = [[scale_vec(t, (-1) ** (psi[a] * chi[b]) * f[a] * f[b]
                      / f[group.mul(a, b)], t.unit)
              for b in group.elements()] for a in group.elements()]
    return t, group, sigma, alpha


@settings(max_examples=60, deadline=None)
@given(q_systems(), st.sampled_from(["none", "sigma", "alpha", "unchecked"]),
       st.data())
def test_q_contractions_match_the_loops(system, change, data):
    """Over Q, with numerators and denominators past 2^63: the cocycle
    check (the same first violation and message), the product's entries
    and the center rows' kernel against the loops, on valid systems and on
    systems with one entry moved; a valid system's product passes the
    checks left to validation."""
    t, g, sigma, alpha = system
    n = g.order
    a = data.draw(st.integers(0, n - 1), label="g")
    b = data.draw(st.integers(0, n - 1), label="h")
    k = data.draw(st.integers(0, t.dim - 1), label="coordinate")
    shift = data.draw(NONZERO_Q, label="shift")
    moved = [[list(x) for x in row] for row in alpha]
    moved[a][b][k] += shift
    moved = [[tuple(x) for x in row] for row in moved]
    if change == "sigma":
        rows = [list(r) for r in sigma[a]]
        rows[k][b % t.dim] += shift
        sigma = sigma[:a] + [tuple(map(tuple, rows))] + sigma[a + 1:]

    def build():
        if change == "unchecked":
            # past validation: the product of an alpha that may break N1 or
            # N2, with its own inverse or the unit, is built as it is
            valid = validate_crossed_system(t, g, sigma, alpha)
            inv = [list(row) for row in valid.alpha_inv]
            inv[a][b] = two_sided_inverse(t, moved[a][b]) or t.unit
            checked = crossed.CrossedSystem(t, g, valid.sigma, tuple(map(tuple, moved)),
                                            tuple(map(tuple, inv)))
        else:
            checked = validate_crossed_system(
                t, g, sigma, moved if change == "alpha" else alpha)
        prod, _ = build_crossed_product(checked)
        return entries(prod), crossed_center(checked)

    fast, slow = _on_both_paths(build)
    assert fast == slow

    if change == "none":
        sys = validate_crossed_system(t, g, sigma, alpha)
        prod, grad = build_crossed_product(sys)
        helpers.assert_crossed_product_checks(sys, prod, grad)
        # a unit's two-sided inverse is unique, so a moved one is no inverse
        inverses = helpers.canonical_inverses(sys)
        inverses[a] = prod.add_vec(inverses[a],
                                   scale_vec(prod, shift, prod.basis_vector(k)))
        assert not inverse_pairs_loop(prod, canonical_units(sys), inverses)


@settings(max_examples=30, deadline=None)
@given(q_systems(), st.booleans(), st.data())
def test_q_block_defect_is_the_generic_tensor(system, move, data):
    """Over Q on a rescaled T, where the block table carries another scale
    than the product's table; also with one alpha off the identity moved
    past validation (at the identity it would move the product's unit)."""
    t, g, sigma, alpha = system
    sys = validate_crossed_system(t, g, sigma, alpha)
    if move:
        others = [x for x in g.elements() if x != g.identity]
        a = data.draw(st.sampled_from(others), label="g")
        b = data.draw(st.sampled_from(others), label="h")
        moved = [list(row) for row in sys.alpha]
        inv = [list(row) for row in sys.alpha_inv]
        moved[a][b] = t.add_vec(moved[a][b], scale_vec(t, data.draw(NONZERO_Q),
                                                     t.basis_vector(t.dim - 1)))
        inv[a][b] = two_sided_inverse(t, moved[a][b]) or t.unit
        sys = crossed.CrossedSystem(t, g, sys.sigma, tuple(map(tuple, moved)),
                                    tuple(map(tuple, inv)))
    fast, slow = _block_and_generic(sys)
    assert np.array_equal(fast, slow)
