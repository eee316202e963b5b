"""Acceptance gate: seven end-to-end criteria with brute-force oracles.

Each test prints one PASS line (with its runtime) once its assertions hold;
time limits are asserted, not advisory.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from gradix.algebra import (associator, center_is_field, commutator,
                            ideal_closure, multiply, nucleus_and_center,
                            sample_simple, simple_under, subfield_check,
                            two_sided_inverse)
from gradix.catalog import (field_algebra, group_algebra, matrix_algebra,
                            octonions, product_algebra,
                            quadratic_field_extension, quaternions,
                            swap_matrix, truncated_dual)
from gradix.cayley import (cayley_double, doubling_report, is_star_simple,
                           mu_square_in_center, star_centers)
from gradix.crossed import (build_crossed_product, canonical_units,
                            crossed_center, is_G_simple, trivial_system,
                            validate_crossed_system)
from gradix.fields import prime_field, rationals
from gradix.graded import (Gradation, is_graded_simple, is_strong,
                           simplicity_equivalence, validate_gradation)
from gradix.groups import (cyclic, direct_product, elementary_abelian_two)
from gradix.laurent import (is_sigma_simple, laurent_center_structure,
                            laurent_simplicity_verdict, make_laurent_ring,
                            verify_central)
from gradix.linalg import Subspace, identity_matrix
from gradix import jsonio
from helpers import (entries, intersect, points, product_with_swap,
                     random_unital_algebra, recognize_crossed_system,
                     sedenions, word_ideal_span)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
Q = rationals()


def report(capsys, name, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
    with capsys.disabled():
        print(f"[PASS] {name} ({elapsed:.2f}s, limit {limit:.0f}s)")


def rand_vec(alg, rng):
    if alg.field.is_finite:
        return tuple(rng.randrange(alg.field.p) for _ in range(alg.dim))
    from fractions import Fraction
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))


def test_criterion_1_section2_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(101)
    corpus = [
        field_algebra(F2), field_algebra(F3), field_algebra(F5),
        quadratic_field_extension(F2), quadratic_field_extension(F3),
        product_algebra(F3, 2), matrix_algebra(F2, 2), matrix_algebra(F3, 2),
        quaternions(F3)[0], octonions(F3)[0], truncated_dual(F3),
        group_algebra(F2, cyclic(2))[0], group_algebra(F3, cyclic(3))[0],
    ]
    corpus += [random_unital_algebra(F2, rng.randint(2, 4), rng)
               for _ in range(3)]
    assert len(corpus) >= 12
    extras_q = [field_algebra(Q), product_algebra(Q, 2)]

    for alg in corpus + extras_q:
        c = nucleus_and_center(alg)
        # three ways to cut the center out of the commuter and two nuclei
        for a, b in ((c.left, c.middle), (c.left, c.right),
                     (c.middle, c.right)):
            assert intersect(intersect(c.commuter, a), b).basis == c.center.basis
        # associator identity residual vanishes exactly
        for _ in range(12):
            u, r, s, t = (rand_vec(alg, rng) for _ in range(4))
            lhs = alg.add_vec(
                alg.add_vec(multiply(alg, u, associator(alg, r, s, t)),
                            multiply(alg, associator(alg, u, r, s), t)),
                associator(alg, u, multiply(alg, r, s), t))
            rhs = alg.add_vec(associator(alg, multiply(alg, u, r), s, t),
                              associator(alg, u, r, multiply(alg, s, t)))
            assert lhs == rhs

    for alg in corpus:
        c = nucleus_and_center(alg)
        # central elements have central inverses
        for r in points(c.center):
            s = two_sided_inverse(alg, r)
            if s is not None:
                assert c.center.contains(s)
        # nuclear units are exactly the units lying in the nucleus
        for u in points(c.nucleus):
            inv = two_sided_inverse(alg, u)
            if inv is not None:
                assert c.nucleus.contains(inv)
    report(capsys, "criterion 1: nucleus/center suite", started, 10)


def test_criterion_2_ideal_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = random.Random(202)
    for _ in range(100):
        alg = random_unital_algebra(F2, rng.randint(1, 4), rng)
        gens = [tuple(rng.randrange(2) for _ in range(alg.dim))
                for _ in range(rng.randint(1, 2))]
        assert (word_ideal_span(alg, gens, max_len=5).basis
                == ideal_closure(alg, gens).basis)
    report(capsys, "criterion 2: word oracle equals closure x100", started, 60)


def test_criterion_3_simplicity_equivalence(capsys):
    started = time.perf_counter()
    dual_graded = (truncated_dual(F3), Gradation(cyclic(2), (0, 1)))
    f9_graded = (quadratic_field_extension(F3), Gradation(cyclic(2), (0, 1)))
    instances = [
        ("F2[Z2]", group_algebra(F2, cyclic(2)), dict(graded=True, simple=False)),
        ("quaternions/F3", quaternions(F3), dict(graded=True, simple=True)),
        ("octonions/F3", octonions(F3), dict(graded=True, simple=True)),
        ("dual numbers", dual_graded, dict(graded=False, simple=False)),
        ("F3[C3]", group_algebra(F3, cyclic(3)), dict(graded=True, simple=False)),
        ("F2[(Z2)^2]", group_algebra(F2, elementary_abelian_two(2)), {}),
        ("F3[C4]", group_algebra(F3, cyclic(4)), {}),
        ("F2[C4]", group_algebra(F2, cyclic(4)), {}),
        ("F3[Z2xZ4]", group_algebra(F3, direct_product(cyclic(2), cyclic(4))), {}),
        ("F9 over Z2", f9_graded, dict(graded=True, simple=True)),
        ("M2(F3) trivial", (matrix_algebra(F3, 2),
                            Gradation(cyclic(1), (0, 0, 0, 0))), {}),
    ]
    assert len(instances) >= 10
    for name, (alg, grad), want in instances:
        assert grad.group.order <= 8
        validate_gradation(alg, grad.group, grad.degrees)
        eq = simplicity_equivalence(alg, grad)
        assert eq.hypercentral, name
        assert eq.consistent, name
        brute = simple_under(alg)
        assert brute.simple == (eq.graded_simple.simple and eq.center_field), name
        if "graded" in want:
            assert eq.graded_simple.simple == want["graded"], name
        if "simple" in want:
            assert eq.simple.simple == want["simple"], name
    report(capsys, "criterion 3: graded simplicity equivalence x11",
           started, 300)


def crossed_corpus():
    ext3 = quadratic_field_extension(F3)
    ext2 = quadratic_field_extension(F2)
    swap_t = product_algebra(F3, 2)
    rot_t = product_algebra(F3, 3)
    rot = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    rot2 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    qa = quaternions(F3)[0]
    quat_t = field_algebra(F3)
    g4 = elementary_abelian_two(2)
    e = qa.basis_vector
    alpha_q = [[(multiply(qa, e(a), e(b))[g4.mul(a, b)],) for b in range(4)]
               for a in range(4)]
    return [
        ("F9 x| Z2", validate_crossed_system(
            ext3, cyclic(2), [identity_matrix(F3, 2), ext3.involution],
            [[ext3.unit] * 2 for _ in range(2)])),
        ("F4 x| Z2", validate_crossed_system(
            ext2, cyclic(2), [identity_matrix(F2, 2), ext2.involution],
            [[ext2.unit] * 2 for _ in range(2)])),
        ("F3xF3 swap x| Z2", validate_crossed_system(
            swap_t, cyclic(2), [identity_matrix(F3, 2), swap_matrix(F3)],
            [[swap_t.unit] * 2 for _ in range(2)])),
        ("F3^3 rot x| Z3", validate_crossed_system(
            rot_t, cyclic(3), [identity_matrix(F3, 3), rot, rot2],
            [[rot_t.unit] * 3 for _ in range(3)])),
        ("quaternion cocycle", validate_crossed_system(
            quat_t, g4, [identity_matrix(F3, 1)] * 4, alpha_q)),
        ("dual numbers group ring", trivial_system(truncated_dual(F3),
                                                   cyclic(2))),
        ("octonion group ring", trivial_system(octonions(F3)[0], cyclic(2))),
    ]


def test_criterion_4_crossed_product_suite(capsys):
    started = time.perf_counter()
    corpus = crossed_corpus()
    assert len(corpus) >= 6

    associativity = {}
    for name, sys_ in corpus:
        prod, grad = build_crossed_product(sys_)
        assert validate_gradation(prod, grad.group, grad.degrees) == grad
        assert is_strong(prod, grad), name
        nucleus = nucleus_and_center(prod).nucleus
        d = sys_.algebra.dim
        for g in sys_.group.elements():
            u = [prod.field.zero] * prod.dim
            u[g * d: (g + 1) * d] = sys_.algebra.unit
            u = tuple(u)
            assert nucleus.contains(u), name
            assert two_sided_inverse(prod, u) is not None, name
        from gradix.algebra import is_associative
        associativity[name] = is_associative(prod)

        gs = is_G_simple(sys_)
        assert gs.simple == is_graded_simple(prod, grad).simple, name

        z, ztg = crossed_center(sys_)
        assert z.basis == nucleus_and_center(prod).center.basis, name
        if gs.simple:
            assert subfield_check(sys_.algebra, ztg), name

    # associativity transfers from the coefficient ring and only from it
    assert associativity["octonion group ring"] is False
    for name in ("F9 x| Z2", "F4 x| Z2", "F3xF3 swap x| Z2",
                 "quaternion cocycle", "dual numbers group ring"):
        assert associativity[name] is True

    roundtrips = 0
    for name, sys_ in corpus:
        if name == "dual numbers group ring":
            continue  # no invertible homogeneous points outside degree 0
        prod, grad = build_crossed_product(sys_)
        back = recognize_crossed_system(prod, grad,
                                        units=canonical_units(sys_))
        prod2, grad2 = build_crossed_product(back)
        assert entries(prod2) == entries(prod), name
        assert grad2.degrees == grad.degrees, name
        roundtrips += 1
    assert roundtrips >= 4
    report(capsys, "criterion 4: crossed product suite", started, 120)


def test_criterion_5_laurent_suite(capsys):
    started = time.perf_counter()
    ext2 = quadratic_field_extension(F2)
    frob_ring = make_laurent_ring(ext2, [ext2.involution])
    swap_ring = make_laurent_ring(product_algebra(F3, 2), [swap_matrix(F3)])

    for ring in (frob_ring, swap_ring):
        v = laurent_simplicity_verdict(ring)
        assert v.sigma_simple
        assert not v.simple
        assert v.witness is not None and v.witness[1] == (2,)
        # central witness is 1 + u x^2 and passes a full period-box check
        assert v.central_witness.support() == ((0,), (2,))
        one = v.central_witness.terms[0]
        assert one[1] == ring.algebra.unit
        assert verify_central(ring, v.central_witness)

        cs = laurent_center_structure(ring, [(-4, 4)])
        # center slice realizes F x| L: exponents with residue in L carry a
        # coefficient space matching the fixed central field F, others nothing
        assert cs.l_points == ((0,),)
        assert cs.fixed_center.rank == 1
        assert cs.slice_exponents == ((-4,), (-2,), (0,), (2,), (4,))
        for basis in cs.slice_bases:
            assert Subspace.span(ring.algebra.field, ring.algebra.dim,
                                 basis).basis == cs.fixed_center.basis

    dual_ring = make_laurent_ring(truncated_dual(F3),
                                  [identity_matrix(F3, 2)])
    dv = laurent_simplicity_verdict(dual_ring)
    assert not dv.sigma_simple
    assert dv.sigma_witness is not None
    assert not dv.simple
    report(capsys, "criterion 5: skew Laurent suite", started, 30)


def doubling_corpus():
    # F3 coefficient rings up to dim 4 (doubles up to dim 8), both
    # involution kinds; mu runs over a square and a non-square
    f3_bases = [
        ("F3 trivial", field_algebra(F3)),
        ("F9 Frobenius", quadratic_field_extension(F3)),
        ("F3xF3 swap", product_with_swap(F3)),
        ("dual numbers trivial", truncated_dual(F3)),
        ("quaternions/F3", quaternions(F3)[0]),
    ]
    f5_bases = [
        ("F5 trivial", field_algebra(F5)),
        ("F25 Frobenius", quadratic_field_extension(F5)),
    ]
    pairs = [(n, a, F3.coerce(m)) for n, a in f3_bases for m in (1, 2)]
    pairs += [(n, a, F5.coerce(m)) for n, a in f5_bases for m in (4, 2)]
    return pairs


def test_criterion_6_doubling_suite(capsys):
    started = time.perf_counter()
    pairs = doubling_corpus()
    assert len(pairs) >= 10
    kinds = set()
    for name, base, mu in pairs:
        f = base.field
        trivial = base.involution == identity_matrix(f, base.dim)
        center = nucleus_and_center(base).center
        square = mu_square_in_center(base, center, mu)
        kinds.add((f.p, trivial, square))

        dbl, grad = cayley_double(base, mu)
        rep = doubling_report(base, mu, dbl)
        assert rep.brute_simple is not None, name
        assert rep.criterion_simple == rep.brute_simple, name
        assert rep.consistent, name

        # graded simplicity of the double reduces to *-simplicity
        assert (is_graded_simple(dbl, grad).simple
                == is_star_simple(base).simple), name
        # the center of the double is Z_* + Z_** l
        zs, zss = star_centers(base)
        zero = (f.zero,) * base.dim
        want = Subspace.span(f, 2 * base.dim,
                             [row + zero for row in zs.basis]
                             + [zero + row for row in zss.basis])
        assert nucleus_and_center(dbl).center.basis == want.basis, name
        # the center of the double is a field per the two-case dichotomy
        want_field = ((trivial and center_is_field(base) and not square)
                      or (not trivial and subfield_check(base, zs)))
        assert center_is_field(dbl) == want_field, name

    # both fields, both involution kinds, both mu classes appear
    assert {p for p, _, _ in kinds} == {3, 5}
    assert {t for _, t, _ in kinds} == {True, False}
    assert {s for _, _, s in kinds} == {True, False}

    # dim-16 stage: the criterion promises simplicity and 10^4 random
    # sampled closures find no proper ideal
    sed, _ = sedenions(F3)
    oct_base = octonions(F3)[0]
    rep16 = doubling_report(oct_base, F3.coerce(-1), sed)
    assert rep16.criterion_simple is True
    assert rep16.brute_simple is None  # over budget for exact enumeration
    sampled = sample_simple(sed, trials=10_000, seed=0)
    assert sampled.mode == "randomized"
    assert sampled.simple
    assert sampled.checked == 10_000
    report(capsys, "criterion 6: doubling criterion vs brute force",
           started, 600)


def test_criterion_7_deterministic_reports(capsys, tmp_path):
    started = time.perf_counter()
    # over Q, where the seed and the trials drive the sampled verdict; over
    # F_p a graded request refuses them
    graded_req = {
        "kind": "graded",
        "payload": {
            "algebra": {"field": {"kind": "Q"}, "dim": 2,
                        "unit": ["1", "0"],
                        "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"},
                                 {"i": 0, "j": 1, "k": 1, "c": "1"},
                                 {"i": 1, "j": 0, "k": 1, "c": "1"},
                                 {"i": 1, "j": 1, "k": 0, "c": "1"}]},
            "gradation": {"group": "C2", "degrees": [0, 1]},
        },
        "options": {"seed": 11, "trials": 64},
    }
    # no seed here: no tower verdict samples, so a tower request refuses one
    tower_req = {"kind": "cayley-tower",
                 "payload": {"field": {"kind": "Fp", "p": 3},
                             "mus": ["1", "1"]}}
    for req in (graded_req, tower_req):
        text = json.dumps(req)
        a = jsonio.render_report(jsonio.run_request(jsonio.parse_request(text)))
        b = jsonio.render_report(jsonio.run_request(jsonio.parse_request(text)))
        assert a == b

    # byte-identity across fresh processes through the CLI
    path = tmp_path / "req.json"
    path.write_text(json.dumps(graded_req))
    runs = [subprocess.run([sys.executable, "-m", "gradix.cli", "analyze",
                            str(path), "--seed", "11"],
                           capture_output=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]
    report(capsys, "criterion 7: deterministic reports", started, 60)
